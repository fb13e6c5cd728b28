// axpy: y = a*x + y over a short vector (internal/apps.AxpySrc sized so
// the run is a few microseconds and the request is all overhead).
float *x, *y;

void initvec(void) {
    x = (float*)malloc(N * sizeof(float));
    y = (float*)malloc(N * sizeof(float));
    for (int i = 0; i < N; i++) {
        x[i] = (float)((i + SEED) % 13) * 0.25f;
        y[i] = (float)(i % 7) * 0.5f;
    }
}

int main(void) {
    initvec();
    float a = 1.5f;
    for (int i = 0; i < N; i++)
        y[i] = a * x[i] + y[i];
    int sum = 0;
    for (int i = 0; i < N; i++)
        sum += (int)(y[i] * 8.0f);
    printf("axpy %d\n", sum);
    return 0;
}
