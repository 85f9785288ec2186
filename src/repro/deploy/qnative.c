/* uint8 x int8 kernels for the compiled int8 plans, on AVX-512 VNNI.
 *
 * vpdpbusd multiplies 64 uint8 activation codes by 64 int8 weight codes
 * and adds each group of four products into one of 16 int32 lanes.  The
 * GEMM broadcasts four consecutive K-bytes of an activation row to every
 * lane and reads the weights packed as [C_out / 16][K / 4][16][4] (see
 * repro.deploy.native.pack_weights), so one instruction advances 16
 * output channels by four K-steps.  Accumulators stay in registers over
 * the whole K loop; the epilogue then runs on them and stores the output.
 *
 * Every epilogue repeats the arithmetic of the NumPy int8 kernels
 * (repro/deploy/plan.py, repro/deploy/qkernels.py) in the same order and
 * precision, so both paths produce the same output bits.  Single-threaded;
 * built and loaded by repro/deploy/native.py. */

#include <immintrin.h>
#include <stdint.h>
#include <string.h>

enum { OUT_S32 = 0, OUT_U8 = 1, OUT_F32 = 2 };

/* One Conv/Gemm node.  Per-channel vectors are padded to a multiple of 16. */
typedef struct {
    const int8_t *w;        /* packed weight codes */
    const double *zp_term;  /* zp_in * column code sums */
    const double *f64;      /* OUT_U8: rounded bias in accumulator units;
                               OUT_F32: dequantization scale s_in * s_w */
    const float *bias;      /* OUT_F32: fp32 bias, or NULL */
    const int64_t *m0;      /* OUT_U8: Q31 mantissa */
    const int64_t *rnd;     /* OUT_U8: round-half-up term 1 << (total - 1) */
    const int64_t *total;   /* OUT_U8: right shift 31 + shift */
    int64_t k, n;           /* reduction length, output channels */
    int64_t zp_out, lo;     /* OUT_U8: output zero point, clamp floor */
    int32_t out_kind, relu;
} qn_layer;

int qn_cpu_ok(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")
        && __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")
        && __builtin_cpu_supports("avx512vnni");
}

/* qkernels.requantize on 8 channels: int64 round-half-up rescale, clip. */
static inline __m128i requant8(const qn_layer *L, __m512d acc, int64_t col)
{
    __m512i t = _mm512_cvttpd_epi64(_mm512_add_pd(acc, _mm512_loadu_pd(L->f64 + col)));
    t = _mm512_mullo_epi64(t, _mm512_loadu_si512(L->m0 + col));
    t = _mm512_add_epi64(t, _mm512_loadu_si512(L->rnd + col));
    t = _mm512_srav_epi64(t, _mm512_loadu_si512(L->total + col));
    t = _mm512_add_epi64(t, _mm512_set1_epi64(L->zp_out));
    t = _mm512_max_epi64(t, _mm512_set1_epi64(L->lo));
    t = _mm512_min_epi64(t, _mm512_set1_epi64(255));
    return _mm512_cvtepi64_epi8(t);
}

/* Epilogue for the 16 accumulators of output row `row`, channels col...
 * Kept out of line: inlining it into every tile quadruples the build time
 * for no measurable gain. */
static __attribute__((noinline)) void store16(const qn_layer *L, __m512i acc, int64_t row, int64_t col, void *out)
{
    const int64_t left = L->n - col, at = row * L->n + col;
    const __mmask16 mask = left >= 16 ? 0xFFFF : (__mmask16)((1u << left) - 1);
    if (L->out_kind == OUT_S32) {
        _mm512_mask_storeu_epi32((int32_t *)out + at, mask, acc);
        return;
    }
    /* acc - zp_in * col_sums, in float64 as the NumPy accumulator holds it */
    __m512d lo = _mm512_cvtepi32_pd(_mm512_castsi512_si256(acc));
    __m512d hi = _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(acc, 1));
    lo = _mm512_sub_pd(lo, _mm512_loadu_pd(L->zp_term + col));
    hi = _mm512_sub_pd(hi, _mm512_loadu_pd(L->zp_term + col + 8));
    if (L->out_kind == OUT_U8) {
        __m128i codes = _mm_unpacklo_epi64(requant8(L, lo, col), requant8(L, hi, col + 8));
        _mm_mask_storeu_epi8((uint8_t *)out + at, mask, codes);
        return;
    }
    /* (float)(acc * scale) + bias, then ReLU */
    __m256 flo = _mm512_cvtpd_ps(_mm512_mul_pd(lo, _mm512_loadu_pd(L->f64 + col)));
    __m256 fhi = _mm512_cvtpd_ps(_mm512_mul_pd(hi, _mm512_loadu_pd(L->f64 + col + 8)));
    __m512 f = _mm512_insertf32x8(_mm512_castps256_ps512(flo), fhi, 1);
    if (L->bias)
        f = _mm512_add_ps(f, _mm512_loadu_ps(L->bias + col));
    if (L->relu)
        f = _mm512_max_ps(f, _mm512_setzero_ps());
    _mm512_mask_storeu_ps((float *)out + at, mask, f);
}

/* Rows row..row+mr-1 of A times channel vectors vec..vec+nv-1 of W.
 * Inlined with constant mr and nv, so acc[][] lives in registers. */
#define MR_MAX 16
#define NV_MAX 4
static inline __attribute__((always_inline)) void
tile(const qn_layer *L, const uint8_t *a, int64_t row, int mr, int64_t vec, int nv, void *out)
{
    const int64_t k = L->k, groups = (k + 3) / 4;
    const int8_t *w = L->w + vec * groups * 64;
    const uint8_t *rows = a + row * k;
    /* The last group of a K not divisible by 4 reads only its K % 4 tail
     * bytes; the packed weights beyond K are zero. */
    const __mmask16 tail = (__mmask16)((1u << (k - 4 * (groups - 1))) - 1);
    __m512i acc[MR_MAX][NV_MAX];
#pragma GCC unroll 16
    for (int r = 0; r < mr; r++)
#pragma GCC unroll 4
        for (int v = 0; v < nv; v++)
            acc[r][v] = _mm512_setzero_si512();
    for (int64_t g = 0; g < groups; g++) {
        const __mmask16 bytes = g + 1 < groups ? 0xF : tail;
        __m512i b[NV_MAX];
#pragma GCC unroll 4
        for (int v = 0; v < nv; v++)
            b[v] = _mm512_loadu_si512(w + (v * groups + g) * 64);
#pragma GCC unroll 16
        for (int r = 0; r < mr; r++) {
            const __m512i q = _mm512_broadcastd_epi32(
                _mm_maskz_loadu_epi8(bytes, rows + r * k + 4 * g));
#pragma GCC unroll 4
            for (int v = 0; v < nv; v++)
                acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], q, b[v]);
        }
    }
#pragma GCC unroll 16
    for (int r = 0; r < mr; r++)
#pragma GCC unroll 4
        for (int v = 0; v < nv; v++)
            store16(L, acc[r][v], row + r, (vec + v) * 16, out);
}

static inline __attribute__((always_inline)) void
gemm_tiles(const qn_layer *L, const uint8_t *a, int64_t m, void *out, int mr, int nv)
{
    const int64_t vecs = (L->n + 15) / 16;
    int64_t row = 0;
    for (; row + mr <= m; row += mr)
        for (int64_t vec = 0; vec < vecs; vec += nv)
            tile(L, a, row, mr, vec, nv, out);
    for (; row < m; row++)
        for (int64_t vec = 0; vec < vecs; vec += nv)
            tile(L, a, row, 1, vec, nv, out);
}

/* out[m, n] = epilogue(a[m, k] (uint8) @ w[k, n] (int8)), row-major. */
void qn_gemm(const qn_layer *L, const uint8_t *a, int64_t m, void *out)
{
    const int64_t vecs = (L->n + 15) / 16;
    if (vecs % 4 == 0)
        gemm_tiles(L, a, m, out, 6, 4);
    else if (vecs % 2 == 0)
        gemm_tiles(L, a, m, out, 12, 2);
    else
        gemm_tiles(L, a, m, out, 16, 1);
}

/* The requantizing residual Add on uint8 codes, as _bind_qadd computes it:
 * each operand rescaled onto the output grid in int64, summed, clipped.
 * p = {za, zb, m0a, m0b, rnda, rndb, ta, tb, zo, lo}; out may alias a or b. */
void qn_add(const uint8_t *a, const uint8_t *b, uint8_t *out, int64_t count, const int64_t *p)
{
    const __m512i za = _mm512_set1_epi64(p[0]), zb = _mm512_set1_epi64(p[1]);
    const __m512i m0a = _mm512_set1_epi64(p[2]), m0b = _mm512_set1_epi64(p[3]);
    const __m512i rnda = _mm512_set1_epi64(p[4]), rndb = _mm512_set1_epi64(p[5]);
    const __m128i ta = _mm_cvtsi64_si128(p[6]), tb = _mm_cvtsi64_si128(p[7]);
    const __m512i zo = _mm512_set1_epi64(p[8]), lo = _mm512_set1_epi64(p[9]);
    const __m512i hi = _mm512_set1_epi64(255);
    for (int64_t i = 0; i < count; i += 8) {
        const __mmask8 mask = count - i >= 8 ? 0xFF : (__mmask8)((1u << (count - i)) - 1);
        __m512i ra = _mm512_cvtepu8_epi64(_mm_maskz_loadu_epi8(mask, a + i));
        __m512i rb = _mm512_cvtepu8_epi64(_mm_maskz_loadu_epi8(mask, b + i));
        ra = _mm512_mullo_epi64(_mm512_sub_epi64(ra, za), m0a);
        ra = _mm512_sra_epi64(_mm512_add_epi64(ra, rnda), ta);
        rb = _mm512_mullo_epi64(_mm512_sub_epi64(rb, zb), m0b);
        rb = _mm512_sra_epi64(_mm512_add_epi64(rb, rndb), tb);
        __m512i t = _mm512_add_epi64(_mm512_add_epi64(ra, rb), zo);
        t = _mm512_min_epi64(_mm512_max_epi64(t, lo), hi);
        _mm512_mask_cvtepi64_storeu_epi8(out + i, mask, t);
    }
}
