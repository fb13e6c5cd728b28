// heat: the paper's heat-distribution plate (4-point stencil through a
// pure function, serial time loop), derived from internal/apps.HeatSrc.
// SEED moves the heated boundary cell.
float **cur, **next;

pure float avg(pure float* up, pure float* mid, pure float* down, int j) {
    return 0.25f * (up[j] + mid[j - 1] + mid[j + 1] + down[j]);
}

void initplate(void) {
    cur = (float**)malloc(N * sizeof(float*));
    next = (float**)malloc(N * sizeof(float*));
    for (int i = 0; i < N; i++) {
        cur[i] = (float*)malloc(N * sizeof(float));
        next[i] = (float*)malloc(N * sizeof(float));
    }
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {
            cur[i][j] = 0.0f;
            next[i][j] = 0.0f;
        }
}

int main(void) {
    initplate();
    for (int t = 0; t < STEPS; t++) {
        cur[0][1 + SEED % (N - 2)] = 100.0f;
        for (int i = 1; i < N - 1; i++)
            for (int j = 1; j < N - 1; j++)
                next[i][j] = avg((pure float*)cur[i - 1], (pure float*)cur[i], (pure float*)cur[i + 1], j);
        for (int i = 1; i < N - 1; i++)
            for (int j = 1; j < N - 1; j++)
                cur[i][j] = next[i][j];
    }
    int sum = 0;
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            sum += (int)(cur[i][j] * 4096.0f);
    printf("heat %d\n", sum);
    return 0;
}
