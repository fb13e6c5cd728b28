// hist: bin counting through a data-dependent subscript (the array
// reduction of internal/apps.HistogramSrc; also the assignment-count
// step of a VQ clustering pipeline). SEED shifts the data stream.
int data[N];

void initdata(void) {
    for (int i = 0; i < N; i++)
        data[i] = ((i + SEED) * 1103515245 + 12345) % BINS;
}

int main(void) {
    initdata();
    int hist[BINS];
    for (int b = 0; b < BINS; b++)
        hist[b] = 0;
    for (int i = 0; i < N; i++)
        hist[data[i]]++;
    int sum = 0;
    for (int b = 0; b < BINS; b++)
        sum += hist[b] * (b % 31 + 1);
    printf("hist %d\n", sum);
    return 0;
}
