/* Native kernels for the compiled plans: the conv front end (pad + im2col)
 * and the uint8 x int8 GEMM, on AMX-INT8 tiles or AVX-512 VNNI.
 *
 * The front end gathers a conv's input windows into position-major column
 * rows, K order (kh, kw, c), filling the border with 0.0 (float32) or the
 * input zero point (uint8 codes); float32 input of an int8 conv is
 * quantized on the way, rounded as qkernels.quantize_into rounds.  It
 * reads any strided (N, H, W, C) view, such as the channels-last view of
 * an NCHW model input, and moves whole byte runs where pixels and
 * channels are contiguous.  uint8 column rows are K padded with zeros to
 * the row stride the caller passes (qn_conv.row).
 *
 * The GEMM reads column rows kp bytes apart and weights packed as
 * [C_out / 16][kp / 4][16][4], where kp (qn_layer.kp) is K padded to a
 * multiple of 64.  The caller decides kp (repro.deploy.native.column_stride,
 * behind pack_weights and the column buffers); this file follows it.
 * The packing is at once the VNNI layout (one vpdpbusd advances 16 output
 * channels by four K-steps) and the AMX B-tile layout (16 rows of four
 * K-steps x 16 channels per 64-byte tile row).  AMX (tdpbusd) multiplies
 * 16-row blocks of columns by 16-channel blocks of weights 64 K-steps at
 * a time; the VNNI loop keeps register blocks of accumulators over the
 * whole K loop.  Both then run one epilogue (epilogue16), which repeats
 * the arithmetic of the NumPy int8 kernels (repro/deploy/plan.py,
 * repro/deploy/qkernels.py) in the same order and precision, so AMX, VNNI
 * and NumPy produce the same output bits.
 *
 * AMX code is compiled only when the compiler targets AMX-INT8, and runs
 * only after qn_amx_enable granted this process the tile data state.
 * Tile state is configured and released inside every call, so calls from
 * several threads never share it.  Single-threaded per call; built and
 * loaded by repro/deploy/native.py. */

#include <errno.h>
#include <immintrin.h>
#include <stdint.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

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
    int64_t k;              /* reduction length */
    int64_t kp;             /* k padded to a multiple of 64: bytes per column row
                               and K steps per packed channel block */
    int64_t n;              /* output channels */
    int64_t zp_out, lo;     /* OUT_U8: output zero point, clamp floor */
    int32_t out_kind, relu;
    int32_t amx;            /* run on AMX tiles (when this process may) */
} qn_layer;

/* One conv's front end.  Gemm inputs are the 1 x 1 case. */
typedef struct {
    int64_t h, w, c, kernel, stride, pad, oh, ow;
    int64_t in_size;        /* bytes per input value: 4 (float32) or 1 (uint8) */
    int64_t out_size;       /* bytes per column value: 4 (float32) or 1 (uint8) */
    int64_t row;            /* bytes per column row */
    float *scratch;         /* float32 in, uint8 out: one row of k * k * c floats */
    float scale;            /* float32 in, uint8 out: the input scale */
    int32_t zp;             /* uint8 out: the input zero point, the border code */
} qn_conv;

int qn_cpu_ok(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")
        && __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")
        && __builtin_cpu_supports("avx512vnni");
}

/* ---------------------------------------------------------------------------
 * front end */

/* qkernels.quantize_into on `count` floats: x / scale in float32, round half
 * to even, + zero point, clip to [0, 255]. */
static void quantize_run(const float *x, int64_t count, float scale, float zp, uint8_t *dst)
{
    const __m512 s = _mm512_set1_ps(scale), z = _mm512_set1_ps(zp);
    const __m512 lo = _mm512_setzero_ps(), hi = _mm512_set1_ps(255.0f);
    for (int64_t i = 0; i < count; i += 16) {
        const __mmask16 m = count - i >= 16 ? 0xFFFF : (__mmask16)((1u << (count - i)) - 1);
        __m512 q = _mm512_div_ps(_mm512_maskz_loadu_ps(m, x + i), s);
        q = _mm512_roundscale_ps(q, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        q = _mm512_min_ps(_mm512_max_ps(_mm512_add_ps(q, z), lo), hi);
        _mm512_mask_cvtepi32_storeu_epi8(dst + i, m, _mm512_cvttps_epi32(q));
    }
}

/* `count` input values, `step` bytes apart, copied to dst. */
static inline void put_run(int64_t size, uint8_t *dst, const uint8_t *src, int64_t count, int64_t step)
{
    if (step == size)
        memcpy(dst, src, (size_t)(count * size));
    else if (size == 4)
        for (int64_t i = 0; i < count; i++)
            memcpy(dst + 4 * i, src + i * step, 4);
    else
        for (int64_t i = 0; i < count; i++)
            dst[i] = src[i * step];
}

/* One column row (the window at oy, ox of the input at x) as `size`-byte
 * values at dst, with `fill` bytes in the border. */
static inline void gather_row(const qn_conv *G, const uint8_t *x, int64_t oy, int64_t ox,
                              int64_t sh, int64_t sw, int64_t sc, int64_t size, int fill,
                              uint8_t *dst)
{
    const int64_t k = G->kernel, c = G->c, ix0 = ox * G->stride - G->pad;
    /* A window row is one run when pixels and channels are contiguous. */
    const int runs = sc == size && sw == c * size;
    for (int64_t kh = 0; kh < k; kh++) {
        const int64_t iy = oy * G->stride - G->pad + kh;
        uint8_t *d = dst + kh * k * c * size;
        if (iy < 0 || iy >= G->h) {
            memset(d, fill, (size_t)(k * c * size));
            continue;
        }
        const uint8_t *src = x + iy * sh;
        if (runs && ix0 >= 0 && ix0 + k <= G->w) {
            memcpy(d, src + ix0 * sw, (size_t)(k * c * size));
            continue;
        }
        for (int64_t kw = 0; kw < k; kw++) {
            const int64_t ix = ix0 + kw;
            if (ix < 0 || ix >= G->w)
                memset(d + kw * c * size, fill, (size_t)(c * size));
            else
                put_run(size, d + kw * c * size, src + ix * sw, c, sc);
        }
    }
}

/* cols[(b, oy, ox), :] = the (kh, kw, c) window of x[b] at (oy, ox), for a
 * batch of n inputs whose (N, H, W, C) byte strides are sn, sh, sw, sc.
 * The border is 0.0, or the zero point (the code of 0.0); a quantizing
 * gather copies each row as float32 into G->scratch and rounds it whole. */
void qn_gather(const qn_conv *G, const uint8_t *x, int64_t n,
               int64_t sn, int64_t sh, int64_t sw, int64_t sc, uint8_t *cols)
{
    const int64_t values = G->kernel * G->kernel * G->c;
    const int quantize = G->in_size == 4 && G->out_size == 1;
    const int fill = G->out_size == 4 ? 0 : G->zp;  /* 0.0f is all zero bytes */
    uint8_t *dst = cols;
    for (int64_t b = 0; b < n; b++)
        for (int64_t oy = 0; oy < G->oh; oy++)
            for (int64_t ox = 0; ox < G->ow; ox++, dst += G->row) {
                if (quantize) {
                    gather_row(G, x + b * sn, oy, ox, sh, sw, sc, 4, 0, (uint8_t *)G->scratch);
                    quantize_run(G->scratch, values, G->scale, (float)G->zp, dst);
                } else {
                    gather_row(G, x + b * sn, oy, ox, sh, sw, sc, G->out_size, fill, dst);
                }
                if (values * G->out_size < G->row)  /* K padding of uint8 rows */
                    memset(dst + values * G->out_size, 0,
                           (size_t)(G->row - values * G->out_size));
            }
}

/* ---------------------------------------------------------------------------
 * the shared epilogue */

/* Per-channel operands of output channels col..col+15. */
typedef struct {
    __m512d zp_lo, zp_hi, f_lo, f_hi;
    __m512i m0_lo, m0_hi, rnd_lo, rnd_hi, tot_lo, tot_hi;
    __m512 bias;
    __mmask16 mask;
} chan16;

static inline __attribute__((always_inline)) void load_chan(const qn_layer *L, int64_t col, chan16 *ch)
{
    const int64_t left = L->n - col;
    ch->mask = left >= 16 ? 0xFFFF : (__mmask16)((1u << left) - 1);
    if (L->out_kind == OUT_S32)
        return;
    ch->zp_lo = _mm512_loadu_pd(L->zp_term + col);
    ch->zp_hi = _mm512_loadu_pd(L->zp_term + col + 8);
    ch->f_lo = _mm512_loadu_pd(L->f64 + col);
    ch->f_hi = _mm512_loadu_pd(L->f64 + col + 8);
    if (L->out_kind == OUT_U8) {
        ch->m0_lo = _mm512_loadu_si512(L->m0 + col);
        ch->m0_hi = _mm512_loadu_si512(L->m0 + col + 8);
        ch->rnd_lo = _mm512_loadu_si512(L->rnd + col);
        ch->rnd_hi = _mm512_loadu_si512(L->rnd + col + 8);
        ch->tot_lo = _mm512_loadu_si512(L->total + col);
        ch->tot_hi = _mm512_loadu_si512(L->total + col + 8);
    } else {
        ch->bias = L->bias ? _mm512_loadu_ps(L->bias + col) : _mm512_setzero_ps();
    }
}

/* qkernels.requantize on 8 channels: int64 round-half-up rescale, clip. */
static inline __m128i requant8(const qn_layer *L, __m512d acc, __m512d bias, __m512i m0,
                               __m512i rnd, __m512i total)
{
    __m512i t = _mm512_cvttpd_epi64(_mm512_add_pd(acc, bias));
    t = _mm512_mullo_epi64(t, m0);
    t = _mm512_add_epi64(t, rnd);
    t = _mm512_srav_epi64(t, total);
    t = _mm512_add_epi64(t, _mm512_set1_epi64(L->zp_out));
    t = _mm512_max_epi64(t, _mm512_set1_epi64(L->lo));
    t = _mm512_min_epi64(t, _mm512_set1_epi64(255));
    return _mm512_cvtepi64_epi8(t);
}

/* The 16 int32 accumulators of one output row (channels ch) -> dst, the
 * row's first output channel. */
static inline __attribute__((always_inline)) void
epilogue16(const qn_layer *L, const chan16 *ch, __m512i acc, void *dst)
{
    if (L->out_kind == OUT_S32) {
        _mm512_mask_storeu_epi32(dst, ch->mask, acc);
        return;
    }
    /* acc - zp_in * col_sums, in float64 as the NumPy accumulator holds it */
    __m512d lo = _mm512_cvtepi32_pd(_mm512_castsi512_si256(acc));
    __m512d hi = _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(acc, 1));
    lo = _mm512_sub_pd(lo, ch->zp_lo);
    hi = _mm512_sub_pd(hi, ch->zp_hi);
    if (L->out_kind == OUT_U8) {
        __m128i codes = _mm_unpacklo_epi64(
            requant8(L, lo, ch->f_lo, ch->m0_lo, ch->rnd_lo, ch->tot_lo),
            requant8(L, hi, ch->f_hi, ch->m0_hi, ch->rnd_hi, ch->tot_hi));
        _mm_mask_storeu_epi8(dst, ch->mask, codes);
        return;
    }
    /* (float)(acc * scale) + bias, then ReLU */
    __m256 flo = _mm512_cvtpd_ps(_mm512_mul_pd(lo, ch->f_lo));
    __m256 fhi = _mm512_cvtpd_ps(_mm512_mul_pd(hi, ch->f_hi));
    __m512 f = _mm512_insertf32x8(_mm512_castps256_ps512(flo), fhi, 1);
    if (L->bias)
        f = _mm512_add_ps(f, ch->bias);
    if (L->relu)
        f = _mm512_max_ps(f, _mm512_setzero_ps());
    _mm512_mask_storeu_ps(dst, ch->mask, f);
}

static inline uint8_t *out_at(const qn_layer *L, void *out, int64_t row, int64_t col)
{
    const int64_t size = L->out_kind == OUT_U8 ? 1 : 4;
    return (uint8_t *)out + (row * L->n + col) * size;
}

/* The epilogue of `rows` output rows from row, channels col..col+15; the
 * accumulators are rows of 16 int32 in acc.  Kept out of line: inlining it
 * into every tile multiplies the build time for no measurable gain. */
static __attribute__((noinline)) void
epilogue_rows(const qn_layer *L, const int32_t *acc, int rows, int64_t row, int64_t col, void *out)
{
    chan16 ch = {0};
    load_chan(L, col, &ch);
    for (int r = 0; r < rows; r++)
        epilogue16(L, &ch, _mm512_loadu_si512(acc + 16 * r), out_at(L, out, row + r, col));
}

/* ---------------------------------------------------------------------------
 * VNNI engine */

/* Rows row..row+mr-1 of A times channel vectors vec..vec+nv-1 of W.
 * Inlined with constant mr and nv, so acc[][] lives in registers. */
#define MR_MAX 16
#define NV_MAX 4
static inline __attribute__((always_inline)) void
tile(const qn_layer *L, const uint8_t *a, int64_t row, int mr, int64_t vec, int nv, void *out)
{
    /* The last group's K steps past k multiply column padding by zero weights. */
    const int64_t kp = L->kp, groups = (L->k + 3) / 4;
    const int8_t *w = L->w + vec * kp * 16;
    const uint8_t *rows = a + row * kp;
    __m512i acc[MR_MAX][NV_MAX];
#pragma GCC unroll 16
    for (int r = 0; r < mr; r++)
#pragma GCC unroll 4
        for (int v = 0; v < nv; v++)
            acc[r][v] = _mm512_setzero_si512();
    for (int64_t g = 0; g < groups; g++) {
        __m512i b[NV_MAX];
#pragma GCC unroll 4
        for (int v = 0; v < nv; v++)
            b[v] = _mm512_loadu_si512(w + v * kp * 16 + g * 64);
#pragma GCC unroll 16
        for (int r = 0; r < mr; r++) {
            int32_t quad;
            memcpy(&quad, rows + r * kp + 4 * g, 4);
            const __m512i q = _mm512_set1_epi32(quad);
#pragma GCC unroll 4
            for (int v = 0; v < nv; v++)
                acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], q, b[v]);
        }
    }
    int32_t spill[MR_MAX * 16] __attribute__((aligned(64)));
#pragma GCC unroll 4
    for (int v = 0; v < nv; v++) {
#pragma GCC unroll 16
        for (int r = 0; r < mr; r++)
            _mm512_store_si512(spill + 16 * r, acc[r][v]);
        epilogue_rows(L, spill, mr, row, (vec + v) * 16, out);
    }
}

static inline __attribute__((always_inline)) void
vnni_tiles(const qn_layer *L, const uint8_t *a, int64_t m, void *out, int mr, int nv)
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

static void vnni_gemm(const qn_layer *L, const uint8_t *a, int64_t m, void *out)
{
    const int64_t vecs = (L->n + 15) / 16;
    if (vecs % 4 == 0)
        vnni_tiles(L, a, m, out, 6, 4);
    else if (vecs % 2 == 0)
        vnni_tiles(L, a, m, out, 12, 2);
    else
        vnni_tiles(L, a, m, out, 16, 1);
}

/* ---------------------------------------------------------------------------
 * AMX engine */

#if defined(__AMX_TILE__) && defined(__AMX_INT8__)

static int amx_granted;

/* Palette 1: tmm0-3 int32 accumulators (2 x 2 blocks of rows x 16),
 * tmm4-5 column blocks (rows x 64 bytes), tmm6-7 weight blocks (16 x 64). */
typedef struct {
    uint8_t palette, start_row, reserved[14];
    uint16_t colsb[16];
    uint8_t rows[16];
} tile_config;

static void configure(int rows)
{
    tile_config cfg;
    memset(&cfg, 0, sizeof cfg);
    cfg.palette = 1;
    for (int t = 0; t < 8; t++) {
        cfg.colsb[t] = 64;
        cfg.rows[t] = t < 6 ? rows : 16;
    }
    _tile_loadconfig(&cfg);
}

/* Row blocks row.. (mr of 16 rows; `rows` rows each when mr == 1) times
 * channel vectors vec.. (nv), over the whole K. */
static inline __attribute__((always_inline)) void
amx_block(const qn_layer *L, const uint8_t *a, int64_t row, int rows, int mr, int64_t vec,
          int nv, void *out)
{
    const int64_t kp = L->kp;
    const uint8_t *a0 = a + row * kp, *a1 = a0 + 16 * kp;
    const int8_t *b0 = L->w + vec * kp * 16, *b1 = b0 + kp * 16;
    _tile_zero(0);
    if (nv > 1)
        _tile_zero(1);
    if (mr > 1) {
        _tile_zero(2);
        if (nv > 1)
            _tile_zero(3);
    }
    for (int64_t k0 = 0; k0 < kp; k0 += 64) {
        _tile_loadd(4, a0 + k0, kp);
        _tile_loadd(6, b0 + 16 * k0, 64);
        _tile_dpbusd(0, 4, 6);
        if (nv > 1) {
            _tile_loadd(7, b1 + 16 * k0, 64);
            _tile_dpbusd(1, 4, 7);
        }
        if (mr > 1) {
            _tile_loadd(5, a1 + k0, kp);
            _tile_dpbusd(2, 5, 6);
            if (nv > 1)
                _tile_dpbusd(3, 5, 7);
        }
    }
    int32_t acc[16 * 16] __attribute__((aligned(64)));
    _tile_stored(0, acc, 64);
    epilogue_rows(L, acc, rows, row, vec * 16, out);
    if (nv > 1) {
        _tile_stored(1, acc, 64);
        epilogue_rows(L, acc, rows, row, vec * 16 + 16, out);
    }
    if (mr > 1) {
        _tile_stored(2, acc, 64);
        epilogue_rows(L, acc, 16, row + 16, vec * 16, out);
        if (nv > 1) {
            _tile_stored(3, acc, 64);
            epilogue_rows(L, acc, 16, row + 16, vec * 16 + 16, out);
        }
    }
}

static void amx_rows(const qn_layer *L, const uint8_t *a, int64_t row, int rows, int mr, void *out)
{
    const int64_t vecs = (L->n + 15) / 16;
    int64_t vec = 0;
    for (; vec + 2 <= vecs; vec += 2)
        amx_block(L, a, row, rows, mr, vec, 2, out);
    if (vec < vecs)
        amx_block(L, a, row, rows, mr, vec, 1, out);
}

static void amx_gemm(const qn_layer *L, const uint8_t *a, int64_t m, void *out)
{
    int64_t row = 0;
    configure(16);
    for (; row + 32 <= m; row += 32)
        amx_rows(L, a, row, 16, 2, out);
    for (; row + 16 <= m; row += 16)
        amx_rows(L, a, row, 16, 1, out);
    if (row < m) {  /* the last rows: tiles of fewer rows, so no read past a */
        configure((int)(m - row));
        amx_rows(L, a, row, (int)(m - row), 1, out);
    }
    _tile_release();
}

#endif

#define ARCH_GET_XCOMP_PERM 0x1022
#define ARCH_REQ_XCOMP_PERM 0x1023
#define XFEATURE_XTILEDATA 18

/* Ask for AMX tile data in this process (forked children inherit it).
 * 0: granted; 1: built without AMX; 2: the CPU lacks AMX-TILE or AMX-INT8;
 * 3: the OS does not enable tile state; -errno: the kernel refused. */
int qn_amx_enable(void)
{
#if defined(__AMX_TILE__) && defined(__AMX_INT8__)
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("amx-tile") || !__builtin_cpu_supports("amx-int8"))
        return 2;
    uint32_t lo, hi;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    if (((lo >> 17) & 3) != 3)
        return 3;
    if (syscall(SYS_arch_prctl, ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) != 0)
        return -errno;
    unsigned long perm = 0;
    if (syscall(SYS_arch_prctl, ARCH_GET_XCOMP_PERM, &perm) != 0)
        return -errno;
    if (!(perm & (1ul << XFEATURE_XTILEDATA)))
        return -EPERM;
    amx_granted = 1;
    return 0;
#else
    return 1;
#endif
}

/* out[m, n] = epilogue(a[m, k] (uint8, rows L->kp bytes apart) @ w[k, n]
 * (int8, packed)), row-major. */
void qn_gemm(const qn_layer *L, const uint8_t *a, int64_t m, void *out)
{
#if defined(__AMX_TILE__) && defined(__AMX_INT8__)
    if (L->amx && amx_granted) {
        amx_gemm(L, a, m, out);
        return;
    }
#endif
    vnni_gemm(L, a, m, out);
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
