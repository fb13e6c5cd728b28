// reduce: scalar integer sum over a pure call, the paper's headline
// pattern (internal/apps.ReduceSumSrc). SEED shifts the summed range.
pure int square(int x) { return x * x; }

int main(void) {
    int s = 0;
    for (int i = 0; i < N; i++)
        s += square((i + SEED) % 8191);
    printf("reduce %d\n", s);
    return 0;
}
