// lama: the paper's ELL sparse matrix-vector product (indirect
// addressing hidden in a pure row kernel), derived from
// internal/apps.LamaSrc. SEED shifts the vector and the column pattern.
float *values, *x, *y;
int *cols;

pure float ellrow(pure float* vals, pure int* idx, pure float* vec, int row, int nnz) {
    float res = 0.0f;
    for (int k = 0; k < nnz; ++k)
        res += vals[row * nnz + k] * vec[idx[row * nnz + k]];
    return res;
}

void initell(void) {
    values = (float*)malloc(ROWS * MAXNNZ * sizeof(float));
    cols = (int*)malloc(ROWS * MAXNNZ * sizeof(int));
    x = (float*)malloc(ROWS * sizeof(float));
    y = (float*)malloc(ROWS * sizeof(float));
    for (int r = 0; r < ROWS; r++) {
        x[r] = 1.0f + (float)((r + SEED) % 19) * 0.125f;
        int nnz = 2 + (r * 13) % (MAXNNZ - 2);
        if (r > ROWS - ROWS / 8)
            nnz = MAXNNZ;
        for (int k = 0; k < MAXNNZ; k++) {
            int pos = r * MAXNNZ + k;
            if (k < nnz) {
                int c = (r + k * 3 + SEED) % ROWS;
                cols[pos] = c;
                values[pos] = 0.5f + (float)((r + c) % 11) * 0.0625f;
            } else {
                cols[pos] = 0;
                values[pos] = 0.0f;
            }
        }
    }
}

int main(void) {
    initell();
    for (int r = 0; r < ROWS; r++)
        y[r] = ellrow((pure float*)values, (pure int*)cols, (pure float*)x, r, MAXNNZ);
    int sum = 0;
    for (int r = 0; r < ROWS; r++)
        sum += (int)(y[r] * 1024.0f);
    printf("lama %d\n", sum);
    return 0;
}
