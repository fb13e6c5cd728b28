// matmul: the paper's Listing 7 (C = A·Bᵀ through a pure dot product),
// derived from internal/apps.MatmulSrc. SEED shifts the input pattern;
// the integer checksum makes the result observable over HTTP.
float **A, **Bt, **C;

pure float mult(float a, float b) {
    return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += mult(a[i], b[i]);
    return res;
}

void initmat(void) {
    A = (float**)malloc(N * sizeof(float*));
    Bt = (float**)malloc(N * sizeof(float*));
    C = (float**)malloc(N * sizeof(float*));
    for (int i = 0; i < N; i++) {
        A[i] = (float*)malloc(N * sizeof(float));
        Bt[i] = (float*)malloc(N * sizeof(float));
        C[i] = (float*)malloc(N * sizeof(float));
    }
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {
            A[i][j] = (float)((i + j + SEED) % 13) * 0.25f;
            Bt[i][j] = (float)((i - j + N + SEED) % 7) * 0.5f;
        }
}

int main(void) {
    initmat();
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], N);
    int sum = 0;
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            sum += (int)(C[i][j] * 8.0f) % 1009;
    printf("matmul %d\n", sum);
    return 0;
}
