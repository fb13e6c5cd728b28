// satellite: the paper's aerosol-retrieval code (per-pixel iterative
// pure kernel with skewed cost), derived from
// internal/apps.SatelliteSrc. SEED shifts the synthetic spectra.
float **cube, *lut, *aod;

pure float retrieve(pure float* px, pure float* table, int bands, int pixel) {
    float ref = 0.0f;
    for (int b = 0; b < bands; b++)
        ref += px[b] * table[b];
    ref = ref / (float)bands;
    float tau = 0.1f;
    int iters = 2 + (pixel * MAXITERS) / NPIX + (pixel * 7919) % 8;
    if (ref > 0.35f)
        iters = iters + MAXITERS / 4;
    for (int it = 0; it < iters; it++) {
        float err = 0.0f;
        for (int b = 0; b < bands; b++) {
            float model = tau * table[b] + (1.0f - tau) * 0.2f;
            float d = px[b] - model;
            if (d < 0.0f)
                d = -d;
            err += d;
        }
        err = err / (float)bands;
        if (err < 0.01f)
            return tau;
        if (ref > tau)
            tau = tau + err * 0.05f;
        else
            tau = tau - err * 0.05f;
        if (tau < 0.0f)
            tau = 0.0f;
        if (tau > 5.0f)
            tau = 5.0f;
    }
    return tau;
}

void initcube(void) {
    cube = (float**)malloc(NPIX * sizeof(float*));
    lut = (float*)malloc(BANDS * sizeof(float));
    aod = (float*)malloc(NPIX * sizeof(float));
    for (int b = 0; b < BANDS; b++)
        lut[b] = 0.3f + 0.4f * (float)(b % 5) / 5.0f;
    for (int p = 0; p < NPIX; p++) {
        cube[p] = (float*)malloc(BANDS * sizeof(float));
        for (int b = 0; b < BANDS; b++)
            cube[p][b] = 0.1f + (float)((p * 31 + b * 17 + SEED) % 97) / 97.0f * (0.2f + 0.6f * (float)p / (float)NPIX);
    }
}

int main(void) {
    initcube();
    for (int p = 0; p < NPIX; p++)
        aod[p] = retrieve((pure float*)cube[p], (pure float*)lut, BANDS, p);
    int sum = 0;
    for (int p = 0; p < NPIX; p++)
        sum += (int)(aod[p] * 65536.0f);
    printf("satellite %d\n", sum);
    return 0;
}
