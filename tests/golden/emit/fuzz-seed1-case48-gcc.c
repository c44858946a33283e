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

int main(void);

int main(void) {
    int __a1_1 = (-6);
    float __x3_2 = (-0.75f);
    int __n4_3 = 8;
    int __lo0_5 = 0;
    int __hi0_6 = __n4_3;
    if ((__lo0_5 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_7 = __n4_3;
    if ((__hi0_6 > __sh0_7)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_8 = alloc_mat_i32(1, __sh0_7);
    #pragma omp parallel for
    for (int i6 = __lo0_5; i6 < __hi0_6; i6++) {
        __m_8->data.i[i6] = (((2 - (-5)) % 7) % 97);
    }
    cmm_mat* __v5_4 = __m_8;
    rc_incr(__v5_4);
    int __w7_9 = 0;
    unsigned char __c_10 = (__w7_9 < 6);
    unsigned char __c_11 = 0;
    while (__c_10) {
        {
            __w7_9 = (__w7_9 + 1);
            __c_11 = (__w7_9 < 6);
        }
        __c_10 = __c_11;
    }
    int __n8_12 = 5;
    cmm_mat* __m_14 = alloc_mat_i32(2, __n8_12, __n8_12);
    cmm_mat* __m9_13 = __m_14;
    rc_incr(__m9_13);
    int __lo0_15 = 0;
    int __hi0_16 = __n8_12;
    if ((__lo0_15 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __lo1_17 = 0;
    int __hi1_18 = __n8_12;
    if ((__lo1_17 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_19 = __n8_12;
    if ((__hi0_16 > __sh0_19)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    int __sh1_20 = __n8_12;
    if ((__hi1_18 > __sh1_20)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_21 = alloc_mat_i32(2, __sh0_19, __sh1_20);
    #pragma omp parallel for
    for (int i10 = __lo0_15; i10 < __hi0_16; i10++) {
        for (int j11 = __lo1_17; j11 < __hi1_18; j11++) {
            __m_21->data.i[((i10 * __sh1_20) + j11)] = (i10 % 97);
        }
    }
    rc_incr(__m_21);
    rc_decr(__m9_13);
    __m9_13 = __m_21;
    int __lo0_23 = 0;
    int __hi0_24 = __n8_12;
    if ((__lo0_23 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_25 = __n8_12;
    if ((__hi0_24 > __sh0_25)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_26 = alloc_mat_i32(1, __sh0_25);
    #pragma omp parallel for
    for (int i15 = __lo0_23; i15 < __hi0_24; i15++) {
        __m_26->data.i[i15] = (((-4) * 2) % 97);
    }
    cmm_mat* __v14_22 = __m_26;
    rc_incr(__v14_22);
    cmm_mat* __rc_28 = alloc_mat_f32(1, 7);
    cmm_mat* __buf16_27 = __rc_28;
    rc_incr(__buf16_27);
    {
        int __ri17_29 = 0;
        unsigned char __c_30 = (__ri17_29 < 7);
        unsigned char __c_31 = 0;
        while (__c_30) {
            {
                __ri17_29 = (__ri17_29 + 1);
                __c_31 = (__ri17_29 < 7);
            }
            __c_30 = __c_31;
        }
    }
    unsigned char __p18_32 = ((__x3_2 / 8.0f) <= ((float)((__n8_12 % 11))));
    int __w19_33 = 0;
    unsigned char __c_34 = (__w19_33 < 3);
    unsigned char __c_35 = 0;
    while (__c_34) {
        {
            __w19_33 = (__w19_33 + 1);
            __c_35 = (__w19_33 < 3);
        }
        __c_34 = __c_35;
    }
    int __lo0_37 = 0;
    int __hi0_38 = __n8_12;
    if ((__lo0_37 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __sh0_39 = __n8_12;
    if ((__hi0_38 > __sh0_39)) {
        cmm_panic("with-loop generator exceeds the genarray shape (the shape must be a superset of the generator indexes)");
    }
    cmm_mat* __m_40 = alloc_mat_i32(1, __sh0_39);
    #pragma omp parallel for
    for (int i21 = __lo0_37; i21 < __hi0_38; i21++) {
        __m_40->data.i[i21] = ((((-4) - __w7_9) + (i21 + __n4_3)) % 97);
    }
    cmm_mat* __v20_36 = __m_40;
    rc_incr(__v20_36);
    unsigned char __p22_41 = ((__w7_9 + __n4_3) <= (__a1_1 + (-1)));
    {
        int __t23_42 = 0;
        unsigned char __c_43 = (__t23_42 < 3);
        unsigned char __c_44 = 0;
        while (__c_43) {
            {
                __t23_42 = (__t23_42 + 1);
                __c_44 = (__t23_42 < 3);
            }
            __c_43 = __c_44;
        }
    }
    int __lo0_46 = 0;
    int __hi0_47 = 5;
    if ((__lo0_46 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __acc_48 = 0;
    for (int k24 = __lo0_46; k24 < __hi0_47; k24++) {
        int __v_49 = __v20_36->data.i[k24];
        __acc_48 = (__acc_48 + __v_49);
    }
    int __s25_45 = __acc_48;
    int __lo0_51 = 0;
    int __hi0_52 = 8;
    if ((__lo0_51 < 0)) {
        cmm_panic("with-loop generator lower bound is negative");
    }
    int __acc_53 = 0;
    for (int k26 = __lo0_51; k26 < __hi0_52; k26++) {
        int __v_54 = __v5_4->data.i[k26];
        if ((__v_54 > __acc_53)) {
            __acc_53 = __v_54;
        }
    }
    int __s27_50 = __acc_53;
    rc_decr(__v20_36);
    rc_decr(__m_40);
    rc_decr(__buf16_27);
    rc_decr(__rc_28);
    rc_decr(__v14_22);
    rc_decr(__m_26);
    rc_decr(__m_21);
    rc_decr(__m9_13);
    rc_decr(__m_14);
    rc_decr(__v5_4);
    rc_decr(__m_8);
    return 0;
}

