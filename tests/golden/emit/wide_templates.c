/* Generated by the cmm extended-C translator. */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <stdarg.h>
#include <stdint.h>
#include <math.h>
#if defined(__SSE__) || defined(_M_X64) || defined(__x86_64__)
#include <xmmintrin.h>
#endif
#ifdef _OPENMP
#include <omp.h>
#endif
#if !defined(__STDC_NO_ATOMICS__)
#include <stdatomic.h>
typedef atomic_long cmm_atomic_long;
#define cmm_atomic_load(p) atomic_load_explicit((p), memory_order_relaxed)
#define cmm_atomic_cas(p, e, v) \
    atomic_compare_exchange_weak_explicit((p), (e), (v), memory_order_relaxed, memory_order_relaxed)
#else
/* No C11 atomics implies no OpenMP threads here either; plain longs are
 * fine for the single-threaded drain. */
typedef long cmm_atomic_long;
#define cmm_atomic_load(p) (*(p))
static int cmm_atomic_cas(long *p, long *e, long v) {
    if (*p == *e) { *p = v; return 1; }
    *e = *p; return 0;
}
#endif

/* Threads sharing the self-scheduling counter of the enclosing parallel
 * region (1 without OpenMP: one thread drains all chunks). */
static int cmm_sched_threads(void) {
#ifdef _OPENMP
    return omp_get_num_threads();
#else
    return 1;
#endif
}

/* Claim the next chunk of 0..total from the region's shared counter.
 * kind: 0 = static (ceil(total/nthreads) per claim, capped at `grain`
 *                   iterations so huge ranges are claimed in cache-sized
 *                   bites rather than one slab per thread),
 *       1 = dynamic (fixed `chunk` iterations per claim),
 *       2 = guided  (max(remaining/nthreads, chunk) per claim).
 * Stores [*lo, *hi) and returns 1, or returns 0 when drained. The claim
 * is a CAS loop that clamps the advance to `total - cur`, so the counter
 * never moves past `total` — a drained region leaves the counter exactly
 * at total instead of arbitrarily beyond it (late claimants racing a
 * fetch_add used to push it total + nthreads*size high). Relaxed
 * ordering suffices: the counter only distributes work; the OpenMP
 * region's implicit barrier provides the happens-before for the loop
 * body's effects. */
static int cmm_sched_next(cmm_atomic_long *counter, long total, int nthreads,
                          int kind, long chunk, long grain, long *lo, long *hi) {
    if (nthreads < 1) nthreads = 1;
    if (chunk < 1) chunk = 1;
    if (grain < 1) grain = 1;
    long cur = cmm_atomic_load(counter);
    for (;;) {
        if (cur >= total) return 0;
        long size;
        if (kind == 2) {
            size = (total - cur) / nthreads;
            if (size < chunk) size = chunk;
        } else if (kind == 1) {
            size = chunk;
        } else {
            size = (total + nthreads - 1) / nthreads;
            if (size < 1) size = 1;
            if (size > grain) size = grain;
        }
        if (size > total - cur) size = total - cur;
        if (cmm_atomic_cas(counter, &cur, cur + size)) {
            *lo = cur;
            *hi = cur + size;
            return 1;
        }
    }
}

typedef struct {
    int refs;               /* the 4-byte reference count header */
    int rank;
    long long dims[8];
    long long len;
    int tag;                /* 0 = int, 1 = float, 2 = bool */
    union { float *f; int *i; unsigned char *b; } data;
} cmm_mat;

static cmm_mat* cmm_alloc_tagged(int tag, int rank, va_list ap) {
    cmm_mat *m = (cmm_mat*)malloc(sizeof(cmm_mat));
    m->refs = 1;
    m->rank = rank;
    m->len = 1;
    m->tag = tag;
    for (int d = 0; d < rank; d++) {
        m->dims[d] = va_arg(ap, long long);
        m->len *= m->dims[d];
    }
    size_t cell = tag == 2 ? sizeof(unsigned char) : 4;
    void *p = calloc(m->len > 0 ? (size_t)m->len : 1, cell);
    m->data.f = (float*)p;
    return m;
}
static cmm_mat* alloc_mat_f32(int rank, ...) {
    va_list ap; va_start(ap, rank);
    cmm_mat *m = cmm_alloc_tagged(1, rank, ap);
    va_end(ap); return m;
}
static cmm_mat* alloc_mat_i32(int rank, ...) {
    va_list ap; va_start(ap, rank);
    cmm_mat *m = cmm_alloc_tagged(0, rank, ap);
    va_end(ap); return m;
}
static cmm_mat* alloc_mat_b(int rank, ...) {
    va_list ap; va_start(ap, rank);
    cmm_mat *m = cmm_alloc_tagged(2, rank, ap);
    va_end(ap); return m;
}
static int dim(cmm_mat *m, int d) { return (int)m->dims[d]; }
static int len(cmm_mat *m) { return (int)m->len; }
static int rank(cmm_mat *m) { return m->rank; }
static void rc_incr(cmm_mat *m) { m->refs++; }
static void rc_decr(cmm_mat *m) {
    if (--m->refs == 0) { free(m->data.f); free(m); }
}
static int rc_count(cmm_mat *m) { return m->refs; }
static cmm_mat* cmm_cow(cmm_mat *m) {
    if (m->refs == 1) return m;
    cmm_mat *c = (cmm_mat*)malloc(sizeof(cmm_mat));
    *c = *m;
    c->refs = 1;
    size_t cell = m->tag == 2 ? sizeof(unsigned char) : 4;
    c->data.f = (float*)malloc((size_t)(m->len > 0 ? m->len : 1) * cell);
    memcpy(c->data.f, m->data.f, (size_t)m->len * cell);
    m->refs--;
    return c;
}
static cmm_mat* cow_f32(cmm_mat *m) { return cmm_cow(m); }
static cmm_mat* cow_i32(cmm_mat *m) { return cmm_cow(m); }
static cmm_mat* cow_b(cmm_mat *m) { return cmm_cow(m); }
static void print_i32(int x) { printf("%d\n", x); }
static void print_f32(float x) { printf("%.6f\n", x); }
static void print_b(unsigned char x) { printf("%d\n", x ? 1 : 0); }
static void print_str(const char *s) { printf("%s\n", s); }
static void cmm_panic(const char *msg) {
    fprintf(stderr, "program panic: %s\n", msg);
    exit(1);
}

/* `A * B`: c (the freshly allocated m x n result) = a (m x p) * b (p x n).
 * Row i of c is built as c[i,:] = c[i,:] + a[i,k] * b[k,:] for k ascending
 * from zero, four values of k to a pass over the row, so every element
 * goes through the scalar nest's sequence of separately rounded
 * `acc + a*b` operations; the lanes of the `omp simd` loops are distinct
 * elements. Under gcc -O2 -fopenmp -msse2 there is no FMA to contract
 * into, so the bits are the interpreter's. `int` computes in `unsigned`,
 * where overflow wraps as the interpreter's does. Rows go to the OpenMP
 * team only when `parallel` is set (the program was compiled with
 * automatic parallelisation on). */
#define CMM_MATMUL(name, T, field)                                          \
static void name(cmm_mat *c, cmm_mat *a, cmm_mat *b, int parallel) {        \
    long long m = a->dims[0], p = a->dims[1], n = b->dims[1];              \
    T *cd = (T*)c->data.field;                                              \
    const T *ad = (const T*)a->data.field, *bd = (const T*)b->data.field;  \
    _Pragma("omp parallel for if(parallel)")                                \
    for (long long i = 0; i < m; i++) {                                     \
        T *ci = cd + i * n;                                                 \
        const T *ai = ad + i * p;                                           \
        long long k = 0;                                                    \
        for (long long j = 0; j < n; j++) ci[j] = 0;                        \
        for (; k + 4 <= p; k += 4) {                                        \
            const T a0 = ai[k], a1 = ai[k + 1], a2 = ai[k + 2], a3 = ai[k + 3]; \
            const T *b0 = bd + k * n, *b1 = b0 + n, *b2 = b1 + n, *b3 = b2 + n; \
            _Pragma("omp simd")                                             \
            for (long long j = 0; j < n; j++)                               \
                ci[j] = (((ci[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j]; \
        }                                                                   \
        for (; k < p; k++) {                                                \
            const T aik = ai[k], *bk = bd + k * n;                          \
            _Pragma("omp simd")                                             \
            for (long long j = 0; j < n; j++) ci[j] = ci[j] + aik * bk[j];  \
        }                                                                   \
    }                                                                       \
}
CMM_MATMUL(cmm_matmul_f32, float, f)
CMM_MATMUL(cmm_matmul_i32, unsigned, i)

/* CMMX container format (shared with the Rust runtime): "CMMX", tag, rank,
 * two zero bytes, rank little-endian 8-byte extents, then one little-endian
 * 4-byte cell per element. The payload moves 4096 cells to an fread /
 * fwrite through a staging buffer, where each cell is assembled from or
 * split into its little-endian bytes; a bool cell (one byte in memory) is
 * the low byte of its file cell, read as 0 or 1. */
#define CMM_STAGE_CELLS ((size_t)4096)
static void cmm_read_truncated(void) {
    fprintf(stderr, "readMatrix: truncated\n"); exit(1);
}
static cmm_mat* cmm_read_mat(const char *path, int tag) {
    FILE *fp = fopen(path, "rb");
    if (!fp) { fprintf(stderr, "readMatrix(%s): cannot open\n", path); exit(1); }
    unsigned char head[8];
    if (fread(head, 1, 8, fp) != 8 || memcmp(head, "CMMX", 4) != 0 || head[4] != tag) {
        fprintf(stderr, "readMatrix(%s): bad header\n", path); exit(1);
    }
    int rank = head[5];
    if (rank == 0) { fprintf(stderr, "readMatrix(%s): invalid header: rank 0\n", path); exit(1); }
    if (rank > 8) { fprintf(stderr, "readMatrix(%s): invalid header: rank %d exceeds 8\n", path, rank); exit(1); }
    cmm_mat *m = (cmm_mat*)malloc(sizeof(cmm_mat));
    m->refs = 1; m->rank = rank; m->len = 1; m->tag = tag;
    for (int d = 0; d < rank; d++) {
        unsigned char b8[8];
        if (fread(b8, 1, 8, fp) != 8) cmm_read_truncated();
        unsigned long long v = 0;
        for (int k = 7; k >= 0; k--) v = (v << 8) | b8[k];
        /* The payload's byte count, 4 * len, must fit a long long. */
        if (v > INT64_MAX / 4 || (m->len != 0 && v > INT64_MAX / 4 / (unsigned long long)m->len)) {
            fprintf(stderr, "readMatrix(%s): invalid header: dimensions overflow\n", path); exit(1);
        }
        m->dims[d] = (long long)v; m->len *= (long long)v;
    }
    size_t len = (size_t)m->len;
    m->data.f = (float*)calloc(len > 0 ? len : 1, tag == 2 ? 1 : 4);
    if (!m->data.f) {
        fprintf(stderr, "readMatrix(%s): cannot allocate %lld cells\n", path, m->len); exit(1);
    }
    unsigned char stage[4 * CMM_STAGE_CELLS];
    for (size_t i = 0; i < len; ) {
        size_t n = len - i < CMM_STAGE_CELLS ? len - i : CMM_STAGE_CELLS;
        if (fread(stage, 4, n, fp) != n) cmm_read_truncated();
        if (tag == 2) {
            for (size_t k = 0; k < n; k++) m->data.b[i + k] = stage[4 * k] ? 1 : 0;
        } else {
            unsigned char *cells = (unsigned char*)(m->data.i + i);
            for (size_t k = 0; k < n; k++) {
                const unsigned char *c4 = stage + 4 * k;
                uint32_t bits = (uint32_t)c4[0] | ((uint32_t)c4[1] << 8)
                              | ((uint32_t)c4[2] << 16) | ((uint32_t)c4[3] << 24);
                memcpy(cells + 4 * k, &bits, 4);
            }
        }
        i += n;
    }
    /* Exact-length contract (matches the Rust-side parser): the container
     * ends at the last payload cell; trailing bytes are a malformed file. */
    if (fgetc(fp) != EOF) {
        fprintf(stderr, "readMatrix(%s): trailing byte(s) after the payload\n", path); exit(1);
    }
    fclose(fp);
    return m;
}
static cmm_mat* read_mat_f32(const char *p) { return cmm_read_mat(p, 1); }
static cmm_mat* read_mat_i32(const char *p) { return cmm_read_mat(p, 0); }
static cmm_mat* read_mat_b(const char *p) { return cmm_read_mat(p, 2); }
static void cmm_write_mat(const char *path, cmm_mat *m) {
    FILE *fp = fopen(path, "wb");
    if (!fp) { fprintf(stderr, "writeMatrix(%s): cannot open\n", path); exit(1); }
    unsigned char head[8 + 8 * 8] = { 'C', 'M', 'M', 'X', (unsigned char)m->tag, (unsigned char)m->rank };
    for (int d = 0; d < m->rank; d++) {
        unsigned long long v = (unsigned long long)m->dims[d];
        for (int k = 0; k < 8; k++) { head[8 + 8 * d + k] = (unsigned char)(v & 0xff); v >>= 8; }
    }
    fwrite(head, 1, 8 + 8 * (size_t)m->rank, fp);
    size_t len = (size_t)m->len;
    unsigned char stage[4 * CMM_STAGE_CELLS];
    for (size_t i = 0; i < len; ) {
        size_t n = len - i < CMM_STAGE_CELLS ? len - i : CMM_STAGE_CELLS;
        for (size_t k = 0; k < n; k++) {
            uint32_t bits;
            if (m->tag == 2) bits = m->data.b[i + k] ? 1 : 0;
            else memcpy(&bits, &m->data.i[i + k], 4);
            unsigned char *c4 = stage + 4 * k;
            c4[0] = (unsigned char)bits; c4[1] = (unsigned char)(bits >> 8);
            c4[2] = (unsigned char)(bits >> 16); c4[3] = (unsigned char)(bits >> 24);
        }
        fwrite(stage, 4, n, fp);
        i += n;
    }
    fclose(fp);
}
static void write_mat_f32(const char *p, cmm_mat *m) { cmm_write_mat(p, m); }
static void write_mat_i32(const char *p, cmm_mat *m) { cmm_write_mat(p, m); }
static void write_mat_b(const char *p, cmm_mat *m) { cmm_write_mat(p, m); }

struct dm_004_ret { int _0; int _1; };
int rangeslice_000(void);
int sched_001(void);
int matmul_002(void);
int split_003(void);
struct dm_004_ret dm_004(int a, int b);
int divmod_004(void);
int gcd_005(void);
int sumsq_006(void);
cmm_mat* cum_007(cmm_mat* row);
int mapcum_007(void);
int work_008(int x);
int spawn_008(void);
int rcbuf_009(void);
int mask_010(void);
int tile_011(void);
int rowslice_012(void);
int main(void);
void mmap_cum_007__126(cmm_mat* src, cmm_mat* dst);

int rangeslice_000(void) {
    int __n_1 = 13;
    int __lo0_3 = 0;
    int __hi0_4 = __n_1;
    if ((__lo0_3 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_5 = __n_1;
    if ((__hi0_4 > __sh0_5)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_6 = alloc_mat_i32(1, __sh0_5);
    #pragma omp parallel for
    for (int i = __lo0_3; i < __hi0_4; i++) {
        __m_6->data.i[i] = ((i * 6) + 8);
    }
    cmm_mat* __v_2 = __m_6;
    rc_incr(__v_2);
    int __rlo_8 = 2;
    int __rsz_9 = ((7 - __rlo_8) + 1);
    if ((__rsz_9 < 0)) {
        __rsz_9 = 0;
    }
    cmm_mat* __m_10 = alloc_mat_i32(1, __rsz_9);
    for (int __r_11 = 0; __r_11 < __rsz_9; __r_11++) {
        __m_10->data.i[__r_11] = __v_2->data.i[(__rlo_8 + __r_11)];
    }
    cmm_mat* __part_7 = __m_10;
    rc_incr(__part_7);
    int __lo0_12 = 0;
    int __hi0_13 = dim(__part_7, 0);
    if ((__lo0_12 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __acc_14 = 0;
    for (int k = __lo0_12; k < __hi0_13; k++) {
        int __v_15 = __part_7->data.i[k];
        __acc_14 = (__acc_14 + __v_15);
    }
    int __ret_16 = ((dim(__part_7, 0) * 1000) + __acc_14);
    rc_decr(__part_7);
    rc_decr(__m_10);
    rc_decr(__v_2);
    rc_decr(__m_6);
    return __ret_16;
    rc_decr(__part_7);
    rc_decr(__m_10);
    rc_decr(__v_2);
    rc_decr(__m_6);
}

int sched_001(void) {
    int __n_17 = 16;
    cmm_mat* __m_19 = alloc_mat_i32(1, __n_17);
    cmm_mat* __v_18 = __m_19;
    rc_incr(__v_18);
    int __lo0_20 = 0;
    int __hi0_21 = __n_17;
    if ((__lo0_20 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_22 = __n_17;
    if ((__hi0_21 > __sh0_22)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_23 = alloc_mat_i32(1, __sh0_22);
    {
        cmm_atomic_long cmm_sched_ctr_1 = 0;
        long cmm_sched_lo_2 = (long)(__lo0_20);
        long cmm_sched_total_3 = (long)(__hi0_21) - cmm_sched_lo_2;
        #pragma omp parallel
        {
            long cmm_chunk_lo_4, cmm_chunk_hi_5;
            while (cmm_sched_next(&cmm_sched_ctr_1, cmm_sched_total_3, cmm_sched_threads(), 1, 3, 16384, &cmm_chunk_lo_4, &cmm_chunk_hi_5)) {
                for (long cmm_k_6 = cmm_chunk_lo_4; cmm_k_6 < cmm_chunk_hi_5; cmm_k_6++) {
                    int x = (int)(cmm_sched_lo_2 + cmm_k_6);
                    __m_23->data.i[x] = (((x * 7) + 5) % 79);
                }
            }
        }
    }
    rc_incr(__m_23);
    rc_decr(__v_18);
    __v_18 = __m_23;
    int __lo0_24 = 0;
    int __hi0_25 = __n_17;
    if ((__lo0_24 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __acc_26 = 0;
    for (int x = __lo0_24; x < __hi0_25; x++) {
        int __v_27 = __v_18->data.i[x];
        if ((__v_27 > __acc_26)) {
            __acc_26 = __v_27;
        }
    }
    int __ret_28 = __acc_26;
    rc_decr(__m_23);
    rc_decr(__v_18);
    rc_decr(__m_19);
    return __ret_28;
    rc_decr(__m_23);
    rc_decr(__v_18);
    rc_decr(__m_19);
}

int matmul_002(void) {
    int __lo0_30 = 0;
    int __hi0_31 = 4;
    if ((__lo0_30 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_32 = 0;
    int __hi1_33 = 4;
    if ((__lo1_32 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_34 = 4;
    if ((__hi0_31 > __sh0_34)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    int __sh1_35 = 4;
    if ((__hi1_33 > __sh1_35)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_36 = alloc_mat_f32(2, __sh0_34, __sh1_35);
    #pragma omp parallel for
    for (int i = __lo0_30; i < __hi0_31; i++) {
        for (int j = __lo1_32; j < __hi1_33; j++) {
            __m_36->data.f[((i * __sh1_35) + j)] = (((float)((((i * 9) + j) % 4))) * 0.5f);
        }
    }
    cmm_mat* __a_29 = __m_36;
    rc_incr(__a_29);
    if ((dim(__a_29, 1) != dim(__a_29, 0))) {
        cmm_panic("matrix multiplication dimension mismatch");
    }
    cmm_mat* __m_38 = alloc_mat_f32(2, dim(__a_29, 0), dim(__a_29, 1));
    cmm_matmul_f32(__m_38, __a_29, __a_29, 1);
    cmm_mat* __p_37 = __m_38;
    rc_incr(__p_37);
    int __lo0_43 = 0;
    int __hi0_44 = 4;
    if ((__lo0_43 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_45 = 0;
    int __hi1_46 = 4;
    if ((__lo1_45 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    float __acc_47 = 0.0f;
    for (int x = __lo0_43; x < __hi0_44; x++) {
        for (int y = __lo1_45; y < __hi1_46; y++) {
            float __v_48 = __p_37->data.f[((x * dim(__p_37, 1)) + y)];
            __acc_47 = (__acc_47 + __v_48);
        }
    }
    int __ret_49 = ((int)((__acc_47 * 4.0f)));
    rc_decr(__p_37);
    rc_decr(__m_38);
    rc_decr(__a_29);
    rc_decr(__m_36);
    return __ret_49;
    rc_decr(__p_37);
    rc_decr(__m_38);
    rc_decr(__a_29);
    rc_decr(__m_36);
}

int split_003(void) {
    int __m_50 = 4;
    int __n_51 = 8;
    int __p_52 = 4;
    int __lo0_54 = 0;
    int __hi0_55 = __m_50;
    if ((__lo0_54 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_56 = 0;
    int __hi1_57 = __n_51;
    if ((__lo1_56 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo2_58 = 0;
    int __hi2_59 = __p_52;
    if ((__lo2_58 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_60 = __m_50;
    if ((__hi0_55 > __sh0_60)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    int __sh1_61 = __n_51;
    if ((__hi1_57 > __sh1_61)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    int __sh2_62 = __p_52;
    if ((__hi2_59 > __sh2_62)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_63 = alloc_mat_f32(3, __sh0_60, __sh1_61, __sh2_62);
    #pragma omp parallel for
    for (int i = __lo0_54; i < __hi0_55; i++) {
        for (int j = __lo1_56; j < __hi1_57; j++) {
            for (int k = __lo2_58; k < __hi2_59; k++) {
                __m_63->data.f[((((i * __sh1_61) + j) * __sh2_62) + k)] = (((float)((((i + (j * 7)) + (k * 8)) % 8))) * 0.25f);
            }
        }
    }
    cmm_mat* __mat_53 = __m_63;
    rc_incr(__mat_53);
    cmm_mat* __m_65 = alloc_mat_f32(2, __m_50, __n_51);
    cmm_mat* __means_64 = __m_65;
    rc_incr(__means_64);
    int __lo0_66 = 0;
    int __hi0_67 = __m_50;
    if ((__lo0_66 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_68 = 0;
    int __hi1_69 = __n_51;
    if ((__lo1_68 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_70 = __m_50;
    if ((__hi0_67 > __sh0_70)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    int __sh1_71 = __n_51;
    if ((__hi1_69 > __sh1_71)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_72 = alloc_mat_f32(2, __sh0_70, __sh1_71);
    #pragma omp parallel for
    for (int i = __lo0_66; i < __hi0_67; i++) {
        {
            for (int jout = 0; jout < ((__hi1_69 - __lo1_68) / 4); jout++) {
                /* vectorized loop over jin (4 x f32 SSE lanes) */
                {
                    int __lo0_73 = 0;
                    int __hi0_74 = __p_52;
                    /* per-lane fallback */
                    if ((__lo0_73 < 0)) {
                        cmm_panic("with-loop generator lower bound is negative");
                    }
                    if ((__lo0_73 < 0)) {
                        cmm_panic("with-loop generator lower bound is negative");
                    }
                    if ((__lo0_73 < 0)) {
                        cmm_panic("with-loop generator lower bound is negative");
                    }
                    if ((__lo0_73 < 0)) {
                        cmm_panic("with-loop generator lower bound is negative");
                    }
                    __m128 __acc_75 = _mm_set1_ps(0.0f);
                    for (int k = __lo0_73; k < __hi0_74; k++) {
                        __m128 __v_76 = _mm_set_ps(__mat_53->data.f[((((i * dim(__mat_53, 1)) + (__lo1_68 + ((jout * 4) + 3))) * dim(__mat_53, 2)) + k)], __mat_53->data.f[((((i * dim(__mat_53, 1)) + (__lo1_68 + ((jout * 4) + 2))) * dim(__mat_53, 2)) + k)], __mat_53->data.f[((((i * dim(__mat_53, 1)) + (__lo1_68 + ((jout * 4) + 1))) * dim(__mat_53, 2)) + k)], __mat_53->data.f[((((i * dim(__mat_53, 1)) + (__lo1_68 + ((jout * 4) + 0))) * dim(__mat_53, 2)) + k)]);
                        __acc_75 = _mm_add_ps(__acc_75, __v_76);
                    }
                    float vspill_1[4];
                    _mm_storeu_ps(vspill_1, _mm_div_ps(__acc_75, _mm_set1_ps(((float)(((float)(__p_52)))))));
                    __m_72->data.f[((i * __sh1_71) + (__lo1_68 + ((jout * 4) + 0)))] = vspill_1[0];
                    __m_72->data.f[((i * __sh1_71) + (__lo1_68 + ((jout * 4) + 1)))] = vspill_1[1];
                    __m_72->data.f[((i * __sh1_71) + (__lo1_68 + ((jout * 4) + 2)))] = vspill_1[2];
                    __m_72->data.f[((i * __sh1_71) + (__lo1_68 + ((jout * 4) + 3)))] = vspill_1[3];
                }
            }
            for (int j = (__lo1_68 + (((__hi1_69 - __lo1_68) / 4) * 4)); j < __hi1_69; j++) {
                int __lo0_73 = 0;
                int __hi0_74 = __p_52;
                if ((__lo0_73 < 0)) {
                    cmm_panic("with-loop generator lower bound is negative");
                }
                float __acc_75 = 0.0f;
                for (int k = __lo0_73; k < __hi0_74; k++) {
                    float __v_76 = __mat_53->data.f[((((i * dim(__mat_53, 1)) + j) * dim(__mat_53, 2)) + k)];
                    __acc_75 = (__acc_75 + __v_76);
                }
                __m_72->data.f[((i * __sh1_71) + j)] = (__acc_75 / ((float)(__p_52)));
            }
        }
    }
    rc_incr(__m_72);
    rc_decr(__means_64);
    __means_64 = __m_72;
    int __lo0_77 = 0;
    int __hi0_78 = __m_50;
    if ((__lo0_77 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_79 = 0;
    int __hi1_80 = __n_51;
    if ((__lo1_79 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    float __acc_81 = 0.0f;
    for (int x = __lo0_77; x < __hi0_78; x++) {
        for (int y = __lo1_79; y < __hi1_80; y++) {
            float __v_82 = __means_64->data.f[((x * dim(__means_64, 1)) + y)];
            __acc_81 = (__acc_81 + __v_82);
        }
    }
    int __ret_83 = ((int)((__acc_81 * 16.0f)));
    rc_decr(__m_72);
    rc_decr(__means_64);
    rc_decr(__m_65);
    rc_decr(__mat_53);
    rc_decr(__m_63);
    return __ret_83;
    rc_decr(__m_72);
    rc_decr(__means_64);
    rc_decr(__m_65);
    rc_decr(__mat_53);
    rc_decr(__m_63);
}

struct dm_004_ret dm_004(int a, int b) {
    int __ret_84 = (a / b);
    int __ret_85 = (a % b);
    return (struct dm_004_ret){ __ret_84, __ret_85 };
}

int divmod_004(void) {
    int __q_86 = 0;
    int __r_87 = 0;
    int __tup0__88 = 0;
    int __tup1__89 = 0;
    struct dm_004_ret tupret_1 = dm_004(431, 14);
    __tup0__88 = tupret_1._0;
    __tup1__89 = tupret_1._1;
    __q_86 = __tup0__88;
    __r_87 = __tup1__89;
    int __ret_90 = ((__q_86 * 100) + __r_87);
    return __ret_90;
}

int gcd_005(void) {
    int __a_91 = 8313;
    int __b_92 = 891;
    int __steps_93 = 0;
    unsigned char __c_94 = (__b_92 > 0);
    unsigned char __c_96 = 0;
    while (__c_94) {
        {
            int __t_95 = (__a_91 % __b_92);
            __a_91 = __b_92;
            __b_92 = __t_95;
            __steps_93 = (__steps_93 + 1);
            __c_96 = (__b_92 > 0);
        }
        __c_94 = __c_96;
    }
    int __ret_97 = ((__a_91 * 100) + __steps_93);
    return __ret_97;
}

int sumsq_006(void) {
    int __n_98 = 12;
    int __lo0_100 = 0;
    int __hi0_101 = __n_98;
    if ((__lo0_100 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_102 = __n_98;
    if ((__hi0_101 > __sh0_102)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_103 = alloc_mat_i32(1, __sh0_102);
    #pragma omp parallel for
    for (int i = __lo0_100; i < __hi0_101; i++) {
        __m_103->data.i[i] = (((i * 4) + 9) % 13);
    }
    cmm_mat* __v_99 = __m_103;
    rc_incr(__v_99);
    int __lo0_104 = 0;
    int __hi0_105 = __n_98;
    if ((__lo0_104 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __acc_106 = 0;
    for (int i = __lo0_104; i < __hi0_105; i++) {
        int __v_107 = __v_99->data.i[i];
        __acc_106 = (__acc_106 + __v_107);
    }
    int __ret_108 = __acc_106;
    rc_decr(__v_99);
    rc_decr(__m_103);
    return __ret_108;
    rc_decr(__v_99);
    rc_decr(__m_103);
}

cmm_mat* cum_007(cmm_mat* row) {
    int __n_109 = dim(row, 0);
    cmm_mat* __m_111 = alloc_mat_f32(1, __n_109);
    cmm_mat* __out_110 = __m_111;
    rc_incr(__out_110);
    float __acc_112 = 0.0f;
    {
        int __i_113 = 0;
        unsigned char __c_114 = (__i_113 < __n_109);
        unsigned char __c_115 = 0;
        while (__c_114) {
            {
                __acc_112 = (__acc_112 + row->data.f[__i_113]);
                __out_110 = cow_f32(__out_110);
                __out_110->data.f[__i_113] = __acc_112;
                __i_113 = (__i_113 + 1);
                __c_115 = (__i_113 < __n_109);
            }
            __c_114 = __c_115;
        }
    }
    rc_incr(__out_110);
    rc_decr(__out_110);
    rc_decr(__m_111);
    rc_decr(row);
    return __out_110;
    rc_decr(__out_110);
    rc_decr(__m_111);
    rc_decr(row);
}

int mapcum_007(void) {
    int __lo0_117 = 0;
    int __hi0_118 = 6;
    if ((__lo0_117 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_119 = 0;
    int __hi1_120 = 8;
    if ((__lo1_119 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_121 = 6;
    if ((__hi0_118 > __sh0_121)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    int __sh1_122 = 8;
    if ((__hi1_120 > __sh1_122)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_123 = alloc_mat_f32(2, __sh0_121, __sh1_122);
    #pragma omp parallel for
    for (int i = __lo0_117; i < __hi0_118; i++) {
        for (int j = __lo1_119; j < __hi1_120; j++) {
            __m_123->data.f[((i * __sh1_122) + j)] = (((float)((((i * 3) + j) % 5))) * 0.5f);
        }
    }
    cmm_mat* __m_116 = __m_123;
    rc_incr(__m_116);
    cmm_mat* __m_125 = alloc_mat_f32(2, dim(__m_116, 0), dim(__m_116, 1));
    mmap_cum_007__126(__m_116, __m_125);
    cmm_mat* __c_124 = __m_125;
    rc_incr(__c_124);
    int __ret_127 = (((int)((__c_124->data.f[((5 * dim(__c_124, 1)) + 7)] * 2.0f))) + ((int)((__c_124->data.f[((2 * dim(__c_124, 1)) + 2)] * 2.0f))));
    rc_decr(__c_124);
    rc_decr(__m_125);
    rc_decr(__m_116);
    rc_decr(__m_123);
    return __ret_127;
    rc_decr(__c_124);
    rc_decr(__m_125);
    rc_decr(__m_116);
    rc_decr(__m_123);
}

int work_008(int x) {
    int __s_128 = 0;
    {
        int __i_129 = 0;
        unsigned char __c_130 = (__i_129 < x);
        unsigned char __c_131 = 0;
        while (__c_130) {
            {
                __s_128 = (__s_128 + (__i_129 % 7));
                __i_129 = (__i_129 + 1);
                __c_131 = (__i_129 < x);
            }
            __c_130 = __c_131;
        }
    }
    int __ret_132 = __s_128;
    return __ret_132;
}

int spawn_008(void) {
    int __a_133 = 0;
    int __b_134 = 0;
    __a_133 = work_008(18); /* spawn (serial elision) */
    __b_134 = work_008(21); /* spawn (serial elision) */
    /* sync (no-op under serial elision) */
    int __ret_135 = (__a_133 + __b_134);
    return __ret_135;
}

int rcbuf_009(void) {
    cmm_mat* __rc_137 = alloc_mat_i32(1, 6);
    cmm_mat* __buf_136 = __rc_137;
    rc_incr(__buf_136);
    {
        int __i_138 = 0;
        unsigned char __c_139 = (__i_138 < 6);
        unsigned char __c_140 = 0;
        while (__c_139) {
            {
                __buf_136->data.i[__i_138] = ((__i_138 * 5) + 9);
                __i_138 = (__i_138 + 1);
                __c_140 = (__i_138 < 6);
            }
            __c_139 = __c_140;
        }
    }
    cmm_mat* __alias_141 = __buf_136;
    rc_incr(__alias_141);
    int __s_142 = 0;
    {
        int __i_143 = 0;
        unsigned char __c_144 = (__i_143 < len(__alias_141));
        unsigned char __c_145 = 0;
        while (__c_144) {
            {
                __s_142 = (__s_142 + __alias_141->data.i[__i_143]);
                __i_143 = (__i_143 + 1);
                __c_145 = (__i_143 < len(__alias_141));
            }
            __c_144 = __c_145;
        }
    }
    int __ret_146 = __s_142;
    rc_decr(__alias_141);
    rc_decr(__buf_136);
    rc_decr(__rc_137);
    return __ret_146;
    rc_decr(__alias_141);
    rc_decr(__buf_136);
    rc_decr(__rc_137);
}

int mask_010(void) {
    int __n_147 = 12;
    int __lo0_149 = 0;
    int __hi0_150 = __n_147;
    if ((__lo0_149 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_151 = __n_147;
    if ((__hi0_150 > __sh0_151)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_152 = alloc_mat_i32(1, __sh0_151);
    #pragma omp parallel for
    for (int i = __lo0_149; i < __hi0_150; i++) {
        __m_152->data.i[i] = ((i * i) % 5);
    }
    cmm_mat* __v_148 = __m_152;
    rc_incr(__v_148);
    int __s_154 = 2;
    cmm_mat* __m_155 = alloc_mat_b(1, dim(__v_148, 0));
    for (int __q_156 = 0; __q_156 < len(__v_148); __q_156++) {
        __m_155->data.b[__q_156] = (__v_148->data.i[__q_156] > __s_154);
    }
    if ((len(__m_155) != dim(__v_148, 0))) {
        cmm_panic("logical index mask length does not match the dimension");
    }
    int __cnt_157 = 0;
    for (int __q_158 = 0; __q_158 < len(__m_155); __q_158++) {
        if (__m_155->data.b[__q_158]) {
            __cnt_157 = (__cnt_157 + 1);
        }
    }
    cmm_mat* __m_159 = alloc_mat_i32(1, __cnt_157);
    int __w_160 = 0;
    for (int __q_161 = 0; __q_161 < len(__m_155); __q_161++) {
        if (__m_155->data.b[__q_161]) {
            __m_159->data.i[__w_160] = __q_161;
            __w_160 = (__w_160 + 1);
        }
    }
    cmm_mat* __m_162 = alloc_mat_i32(1, __cnt_157);
    for (int __r_163 = 0; __r_163 < __cnt_157; __r_163++) {
        __m_162->data.i[__r_163] = __v_148->data.i[__m_159->data.i[__r_163]];
    }
    cmm_mat* __big_153 = __m_162;
    rc_incr(__big_153);
    int __ret_164 = dim(__big_153, 0);
    rc_decr(__big_153);
    rc_decr(__m_162);
    rc_decr(__m_159);
    rc_decr(__m_155);
    rc_decr(__v_148);
    rc_decr(__m_152);
    return __ret_164;
    rc_decr(__big_153);
    rc_decr(__m_162);
    rc_decr(__m_159);
    rc_decr(__m_155);
    rc_decr(__v_148);
    rc_decr(__m_152);
}

int tile_011(void) {
    int __n_165 = 8;
    cmm_mat* __m_167 = alloc_mat_i32(2, __n_165, __n_165);
    cmm_mat* __g_166 = __m_167;
    rc_incr(__g_166);
    int __lo0_168 = 0;
    int __hi0_169 = __n_165;
    if ((__lo0_168 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_170 = 0;
    int __hi1_171 = __n_165;
    if ((__lo1_170 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_172 = __n_165;
    if ((__hi0_169 > __sh0_172)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    int __sh1_173 = __n_165;
    if ((__hi1_171 > __sh1_173)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_174 = alloc_mat_i32(2, __sh0_172, __sh1_173);
    {
        #pragma omp parallel for
        for (int i_out = 0; i_out < ((__hi0_169 - __lo0_168) / 4); i_out++) {
            for (int j_out = 0; j_out < ((__hi1_171 - __lo1_170) / 4); j_out++) {
                for (int i_in = 0; i_in < 4; i_in++) {
                    for (int j_in = 0; j_in < 4; j_in++) {
                        __m_174->data.i[(((__lo0_168 + ((i_out * 4) + i_in)) * __sh1_173) + (__lo1_170 + ((j_out * 4) + j_in)))] = ((((__lo0_168 + ((i_out * 4) + i_in)) * 4) + ((__lo1_170 + ((j_out * 4) + j_in)) * 6)) % 11);
                    }
                }
            }
        }
        for (int i = __lo0_168; i < (__lo0_168 + (((__hi0_169 - __lo0_168) / 4) * 4)); i++) {
            for (int j = (__lo1_170 + (((__hi1_171 - __lo1_170) / 4) * 4)); j < __hi1_171; j++) {
                __m_174->data.i[((i * __sh1_173) + j)] = (((i * 4) + (j * 6)) % 11);
            }
        }
        for (int i = (__lo0_168 + (((__hi0_169 - __lo0_168) / 4) * 4)); i < __hi0_169; i++) {
            for (int j = __lo1_170; j < __hi1_171; j++) {
                __m_174->data.i[((i * __sh1_173) + j)] = (((i * 4) + (j * 6)) % 11);
            }
        }
    }
    rc_incr(__m_174);
    rc_decr(__g_166);
    __g_166 = __m_174;
    int __lo0_175 = 0;
    int __hi0_176 = __n_165;
    if ((__lo0_175 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_177 = 0;
    int __hi1_178 = __n_165;
    if ((__lo1_177 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __acc_179 = 0;
    for (int x = __lo0_175; x < __hi0_176; x++) {
        for (int y = __lo1_177; y < __hi1_178; y++) {
            int __v_180 = __g_166->data.i[((x * dim(__g_166, 1)) + y)];
            __acc_179 = (__acc_179 + __v_180);
        }
    }
    int __ret_181 = __acc_179;
    rc_decr(__m_174);
    rc_decr(__g_166);
    rc_decr(__m_167);
    return __ret_181;
    rc_decr(__m_174);
    rc_decr(__g_166);
    rc_decr(__m_167);
}

int rowslice_012(void) {
    int __lo0_183 = 0;
    int __hi0_184 = 5;
    if ((__lo0_183 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_185 = 0;
    int __hi1_186 = 7;
    if ((__lo1_185 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_187 = 5;
    if ((__hi0_184 > __sh0_187)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    int __sh1_188 = 7;
    if ((__hi1_186 > __sh1_188)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_189 = alloc_mat_i32(2, __sh0_187, __sh1_188);
    #pragma omp parallel for
    for (int i = __lo0_183; i < __hi0_184; i++) {
        for (int j = __lo1_185; j < __hi1_186; j++) {
            __m_189->data.i[((i * __sh1_188) + j)] = (((i * 3) + (j * 7)) % 14);
        }
    }
    cmm_mat* __m_182 = __m_189;
    rc_incr(__m_182);
    int __asz_191 = dim(__m_182, 1);
    cmm_mat* __m_192 = alloc_mat_i32(1, __asz_191);
    for (int __r_193 = 0; __r_193 < __asz_191; __r_193++) {
        __m_192->data.i[__r_193] = __m_182->data.i[((3 * dim(__m_182, 1)) + (0 + __r_193))];
    }
    cmm_mat* __row_190 = __m_192;
    rc_incr(__row_190);
    int __lo0_194 = 0;
    int __hi0_195 = 7;
    if ((__lo0_194 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __acc_196 = 0;
    for (int j = __lo0_194; j < __hi0_195; j++) {
        int __v_197 = __row_190->data.i[j];
        __acc_196 = (__acc_196 + __v_197);
    }
    int __ret_198 = __acc_196;
    rc_decr(__row_190);
    rc_decr(__m_192);
    rc_decr(__m_182);
    rc_decr(__m_189);
    return __ret_198;
    rc_decr(__row_190);
    rc_decr(__m_192);
    rc_decr(__m_182);
    rc_decr(__m_189);
}

int main(void) {
    int __cr_199 = rangeslice_000();
    print_i32(__cr_199);
    int __cr_200 = sched_001();
    print_i32(__cr_200);
    int __cr_201 = matmul_002();
    print_i32(__cr_201);
    int __cr_202 = split_003();
    print_i32(__cr_202);
    int __cr_203 = divmod_004();
    print_i32(__cr_203);
    int __cr_204 = gcd_005();
    print_i32(__cr_204);
    int __cr_205 = sumsq_006();
    print_i32(__cr_205);
    int __cr_206 = mapcum_007();
    print_i32(__cr_206);
    int __cr_207 = spawn_008();
    print_i32(__cr_207);
    int __cr_208 = rcbuf_009();
    print_i32(__cr_208);
    int __cr_209 = mask_010();
    print_i32(__cr_209);
    int __cr_210 = tile_011();
    print_i32(__cr_210);
    int __cr_211 = rowslice_012();
    print_i32(__cr_211);
    int __ret_212 = 0;
    return __ret_212;
    return 0;
}

void mmap_cum_007__126(cmm_mat* src, cmm_mat* dst) {
    #pragma omp parallel for
    for (int x0 = 0; x0 < dim(src, 0); x0++) {
        cmm_mat* slice = alloc_mat_f32(1, dim(src, 1));
        for (int x1 = 0; x1 < dim(src, 1); x1++) {
            slice->data.f[x1] = src->data.f[((x0 * dim(src, 1)) + x1)];
        }
        rc_incr(slice);
        cmm_mat* res = cum_007(slice);
        for (int x1 = 0; x1 < dim(src, 1); x1++) {
            dst->data.f[((x0 * dim(src, 1)) + x1)] = res->data.f[x1];
        }
        rc_decr(res);
        rc_decr(slice);
    }
}

