/* The cascade iteration of prodrisk.cascade, compiled.
 *
 * Levels, q and products are (rows, W) row-major blocks of W columns, one
 * column per cascade. Every function takes its width W at run time and
 * dispatches to a copy compiled for that constant width, 1 to 16; a width
 * outside that range returns -1 and touches nothing. Row lists are intptr_t
 * (numpy's intp); a NULL list means rows 0 .. k - 1.
 *
 * The results are numpy's and scipy's bit for bit, as long as this file is
 * compiled without -ffast-math and with -ffp-contract=off: every sum starts
 * at 0.0 and adds its terms in stored column order, as scipy's csr_matvec
 * and csr_matvecs do on a zeroed output; maxima and minima follow numpy's
 * NaN rule; sigma is fmin(s_out / sector sum, 1).
 *
 * The operators' column indices and row pointers, group_ptr and sector_of
 * are int32, as prodrisk.cascade builds them.
 *
 * prodrisk.cascade runs each iteration of a block of cascades as one call
 * of step_block: the iteration, the caps, and the finishing and compaction
 * of columns (finish). It also takes every one-column product outside the
 * blocks (matvec): the residual demand as the operators are built, and the
 * factors of a traced state. step_block, finish, matvec and vector_lanes
 * are the library's only exports; finish is exported for the tests. No
 * export takes a name that the C library also exports (libc has a step),
 * which a call inside this file could bind to instead. The calls go through
 * ctypes, which releases the GIL for the whole call, so blocks on different
 * threads run in parallel.
 *
 * prodrisk.kernel builds this file three times: a portable build, an AVX2
 * build with -mavx2 added and an AVX-512 build with -mavx512f added. It
 * loads the widest one that the portable build's vector_lanes finds this
 * CPU runs. Each lane of a vector computes as a lone double would, so every
 * build writes the same bits.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The operators of one ImpactMatrices; group_ptr[i] .. group_ptr[i + 1]
 * are firm i's rows of down_op, its constraint groups. */
typedef struct {
    int64_t n, n_sectors;
    const int32_t *sector_ptr, *sector_idx;
    const double *sector_val;
    const int32_t *sector_of;
    const double *s_out;
    const int32_t *group_ptr, *down_ptr, *down_idx;
    const double *down_val;
    const int32_t *up_ptr, *up_idx;
    const double *up_val, *u_resid;
} Ops;

/* One block of cascades between calls, held by prodrisk.kernel.Workspace.
 * The levels are (n, w) blocks of the w live columns; a whole step writes
 * hd_new and hu_new and swaps each pair of pointers. cap_at lists the flat
 * positions row * w + col of the production caps, cap_val their values.
 * Column j stops at its first iteration whose decrement is at most epsilon,
 * or at max_iter; done marks the stopped columns, which ride along until
 * the block is compacted, and col_of[j] is column j's place among the
 * block's first width columns: its row of out_d and out_u (rows of n), T
 * and converged. budget is the most down_op and up_op nonzeros a
 * row-subset step may recompute; below 0, every step recomputes every row.
 * Between row-subset steps, q and sector hold q = sigma (1 - h_d) and the
 * sector sums of the levels the last step started from, damaged marks the
 * firms whose h_d has moved in the block, and changed_d and changed_u list,
 * ascending, the firms whose capped h_d and h_u fell in the last step in a
 * live column. rows_d, rows_u, rows_q (n each) and rows_s (one per sector)
 * are the lists of a step; mark and sector_mark are all 0 between calls.
 * in_ptr[i] .. in_ptr[i + 1] are the down_op nonzeros of firm i's groups:
 * with down_op's column indices, the (buyer, supplier) structure. ran
 * records what the last step ran (STEP_*). recomputed holds the down_op and
 * up_op nonzeros of the block's last row-subset step, 0 before the first;
 * where it passes futile, the next step runs whole, unmarked. */
typedef struct {
    int64_t w, max_iter;
    double epsilon;
    double *h_d, *hd_new, *h_u, *hu_new, *q, *sector, *dec;
    int64_t n_caps;
    intptr_t *cap_at;
    double *cap_val;
    uint8_t *done;
    intptr_t *col_of;
    double *out_d, *out_u;
    int64_t *T;
    uint8_t *converged;
    int64_t budget;
    uint8_t *damaged, *mark, *sector_mark;
    const int32_t *in_ptr;
    intptr_t *changed_d, *changed_u, *rows_d, *rows_u, *rows_q, *rows_s;
    int64_t n_changed_d, n_changed_u, ran, recomputed, futile;
} Block;

enum { STEP_CAPS, STEP_ROWS, STEP_DECLINED, STEP_WHOLE };

#define MAX_WIDTH 16
#define INLINE static inline __attribute__((always_inline))
#define SWAP(a, b) do { __typeof__(a) swap_ = (a); (a) = (b); (b) = swap_; } while (0)

/* numpy's maximum and minimum: a NaN in either argument wins */
#define MAX(a, b) (((a) >= (b) || isnan(a)) ? (a) : (b))
#define MIN(a, b) (((a) <= (b) || isnan(a)) ? (a) : (b))

/* A row of W lanes is worked in vectors of LANES lanes, in GCC's vector
 * extension: W / LANES whole vectors, then (W % LANES) / 2 two-lane pairs
 * (v2), then a lone lane where W is odd. Each lane's arithmetic and
 * comparisons are those of a double. The AVX-512 build takes eight lanes,
 * the AVX2 build four, the portable build two, the width of its SSE2
 * registers: its vectors are the pairs, so it has no pair left over. */
#if defined(__AVX512F__)
#define LANES 8
#elif defined(__AVX2__)
#define LANES 4
#else
#define LANES 2
#endif
typedef double vec __attribute__((vector_size(8 * LANES)));
typedef double v2 __attribute__((vector_size(16)));

/* The lane just past a row's whole vectors: the first of its pairs */
#define VEC_END(W) ((W) / LANES * LANES)

/* keep ? a : b, lane by lane, for keep a comparison of vectors */
#define SELECT(keep, a, b) (((keep) & (__typeof__(keep))(a)) | (~(keep) & (__typeof__(keep))(b)))

INLINE vec loadv(const double *p)
{
    vec v;
    memcpy(&v, p, sizeof v);
    return v;
}

INLINE void storev(double *p, vec v)
{
    memcpy(p, &v, sizeof v);
}

/* MAX on each lane */
INLINE vec maxv(vec a, vec b)
{
    return (vec)SELECT((a >= b) | (a != a), a, b);
}

INLINE v2 load2(const double *p)
{
    v2 v;
    memcpy(&v, p, sizeof v);
    return v;
}

INLINE void store2(double *p, v2 v)
{
    memcpy(p, &v, sizeof v);
}

/* MAX and MIN on each of two lanes */
INLINE v2 max2(v2 a, v2 b)
{
    return (v2)SELECT((a >= b) | (a != a), a, b);
}

INLINE v2 min2(v2 a, v2 b)
{
    return (v2)SELECT((a <= b) | (a != a), a, b);
}

/* CALL(w) is defined around each use: the call for the constant width w */
#define DISPATCH(W)                                                                  \
    switch (W) {                                                                     \
    case 1: CALL(1); return 0;    case 2: CALL(2); return 0;                         \
    case 3: CALL(3); return 0;    case 4: CALL(4); return 0;                         \
    case 5: CALL(5); return 0;    case 6: CALL(6); return 0;                         \
    case 7: CALL(7); return 0;    case 8: CALL(8); return 0;                         \
    case 9: CALL(9); return 0;    case 10: CALL(10); return 0;                       \
    case 11: CALL(11); return 0;  case 12: CALL(12); return 0;                       \
    case 13: CALL(13); return 0;  case 14: CALL(14); return 0;                       \
    case 15: CALL(15); return 0;  case 16: CALL(16); return 0;                       \
    }                                                                                \
    return -1;

INLINE double clip01(double v)
{
    v = MAX(v, 0.0);
    return MIN(v, 1.0);
}

/* The same for a lone lane (odd widths, width 1 above all): on two lanes
 * the comparisons compile to selects, where the scalar code above would
 * branch on data. The loops over lane pairs vectorize without this. */
INLINE double max1(double a, double b)
{
    return max2((v2){a, a}, (v2){b, b})[0];
}

INLINE v2 clip2(v2 v)
{
    return min2(max2(v, (v2){0.0, 0.0}), (v2){1.0, 1.0});
}

INLINE double clip1(double v)
{
    return clip2((v2){v, v})[0];
}

/* row = MAX(row, x), lane by lane */
INLINE void max_row(double *row, const double *x, const int W)
{
    for (int c = 0; c < VEC_END(W); c += LANES)
        storev(row + c, maxv(loadv(row + c), loadv(x + c)));
    for (int c = VEC_END(W); c < (W & ~1); c += 2)
        store2(row + c, max2(load2(row + c), load2(x + c)));
    if (W & 1)
        row[W - 1] = max1(row[W - 1], x[W - 1]);
}

/* out = clip(base - x, 0, 1) where sub, else clip(base + x, 0, 1), lane by
 * lane; out may be x. Without AVX, GCC compiles a SELECT lane by lane to
 * scalar code, so the portable build leaves the clip to a scalar loop,
 * which GCC vectorizes itself. */
INLINE void clip_row(double *out, double base, const double *x, const int sub, const int W)
{
#ifdef __AVX2__
    const vec zero = {0.0}, one = zero + 1.0;
    for (int c = 0; c < VEC_END(W); c += LANES) {
        vec v = sub ? base - loadv(x + c) : base + loadv(x + c);
        v = (vec)SELECT((v >= zero) | (v != v), v, zero);
        storev(out + c, (vec)SELECT((v <= one) | (v != v), v, one));
    }
    for (int c = VEC_END(W); c < (W & ~1); c += 2)
        store2(out + c, clip2(sub ? base - load2(x + c) : base + load2(x + c)));
#else
    for (int c = 0; c < (W & ~1); c++)
        out[c] = clip01(sub ? base - x[c] : base + x[c]);
#endif
    if (W & 1)
        out[W - 1] = clip1(sub ? base - x[W - 1] : base + x[W - 1]);
}

/* q[i] = sigma_i * (1 - h_d[i]) of the listed firms, sigma_i = fmin(s_out_i /
 * sector[sector of i], 1) */
INLINE void q_rows_w(const Ops *o, const intptr_t *rows, int64_t k, const double *sector,
                     const double *h_d, double *q, const int W)
{
    for (int64_t t = 0; t < k; t++) {
        const int64_t i = rows ? rows[t] : t;
        const double *sec = sector + (int64_t)o->sector_of[i] * W;
        for (int c = 0; c < W; c++) {
            const double x = o->s_out[i] / sec[c];
            const double s = x < 1.0 ? x : 1.0; /* fmin(x, 1.0): NaN gives 1 */
            q[i * W + c] = s * (1.0 - h_d[i * W + c]);
        }
    }
}

static int q_rows(const Ops *o, int W, const intptr_t *rows, int64_t k, const double *sector,
                  const double *h_d, double *q)
{
#define CALL(w) q_rows_w(o, rows, k, sector, h_d, q, w)
    DISPATCH(W)
#undef CALL
}

/* For each listed row r of h: its decrement d = h[r] - new[t], 0 in a done
 * column; dec = max(dec, d) per column; h[r] = new[t]. The rows where some d
 * > 0 are written to moved, in order (moved may be rows); returns their count. */
INLINE int64_t apply_rows_w(const intptr_t *rows, int64_t k, double *h, const double *new,
                            const uint8_t *done, double *dec, intptr_t *moved, const int W)
{
    int64_t n_moved = 0;
    for (int64_t t = 0; t < k; t++) {
        const intptr_t r = rows[t];
        int fell = 0;
        for (int c = 0; c < W; c++) {
            const double d = done[c] ? 0.0 : h[r * W + c] - new[t * W + c];
            fell |= d > 0.0;
            dec[c] = MAX(dec[c], d);
            h[r * W + c] = new[t * W + c];
        }
        if (fell)
            moved[n_moved++] = r;
    }
    return n_moved;
}

static int64_t apply_rows(int W, const intptr_t *rows, int64_t k, double *h, const double *new,
                          const uint8_t *done, double *dec, intptr_t *moved)
{
#define CALL(w) return apply_rows_w(rows, k, h, new, done, dec, moved, w)
    DISPATCH(W)
#undef CALL
}

/* dec = per column, the maximum of h_d - hd_new and h_u - hu_new over all n rows */
INLINE void largest_decrement_w(int64_t n, const double *h_d, const double *h_u,
                                const double *hd_new, const double *hu_new, double *dec,
                                const int W)
{
    for (int64_t i = 0; i < n; i++)
        for (int c = 0; c < W; c++) {
            const double d = h_d[i * W + c] - hd_new[i * W + c];
            const double u = h_u[i * W + c] - hu_new[i * W + c];
            const double m = MAX(d, u);
            dec[c] = i == 0 ? m : MAX(dec[c], m);
        }
}

/* The marked entries of mark[0 .. k) to list, ascending, each cleared; returns their count */
static int64_t collect(uint8_t *mark, int64_t k, intptr_t *list)
{
    int64_t found = 0;
    for (int64_t i = 0; i < k; i++)
        if (mark[i]) {
            list[found++] = i;
            mark[i] = 0;
        }
    return found;
}

/* The caps: each capped level becomes MIN(level, cap), numpy's minimum */
static void apply_caps(Block *b)
{
    for (int64_t k = 0; k < b->n_caps; k++) {
        const intptr_t p = b->cap_at[k];
        const double v = b->cap_val[k];
        b->h_d[p] = MIN(b->h_d[p], v);
        b->h_u[p] = MIN(b->h_u[p], v);
    }
}

/* The live columns of a block move to the successor buffers, which hold
 * the levels from then on; their caps, col_of and done flags move with
 * them, and every later step recomputes every row: q and the sector sums
 * are not compacted. */
static void compact(Block *b, int64_t n)
{
    const int64_t w = b->w;
    int64_t keep[MAX_WIDTH], pos[MAX_WIDTH], n_keep = 0, n_caps = 0;
    for (int64_t j = 0; j < w; j++) {
        pos[j] = b->done[j] ? -1 : n_keep;
        if (!b->done[j])
            keep[n_keep++] = j;
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t k = 0; k < n_keep; k++) {
            b->hd_new[i * n_keep + k] = b->h_d[i * w + keep[k]];
            b->hu_new[i * n_keep + k] = b->h_u[i * w + keep[k]];
        }
    SWAP(b->h_d, b->hd_new);
    SWAP(b->h_u, b->hu_new);
    for (int64_t k = 0; k < b->n_caps; k++) {
        const int64_t col = pos[b->cap_at[k] % w];
        if (col >= 0) {
            b->cap_at[n_caps] = b->cap_at[k] / w * n_keep + col;
            b->cap_val[n_caps++] = b->cap_val[k];
        }
    }
    b->n_caps = n_caps;
    for (int64_t k = 0; k < n_keep; k++) {
        b->col_of[k] = b->col_of[keep[k]];
        b->done[k] = 0;
    }
    b->w = n_keep;
    b->budget = -1;
}

/* After iteration t: each live column whose decrement is at most epsilon,
 * or every live one at t = max_iter, stops. Its levels go to its rows of
 * out_d and out_u, and T = t there, with converged set if its decrement is
 * at most epsilon. Stopped columns ride along until at least half of the
 * block has stopped; then the block is compacted. Returns the number of
 * live columns, or -1 for a width outside 1 .. MAX_WIDTH. */
int64_t finish(Block *b, int64_t n, int64_t t)
{
    const int64_t w = b->w;
    int64_t fin[MAX_WIDTH], n_fin = 0, n_done = 0;
    if (w < 1 || w > MAX_WIDTH)
        return -1;
    for (int64_t j = 0; j < w; j++) {
        const int ok = b->dec[j] <= b->epsilon;
        if (!b->done[j] && (ok || t >= b->max_iter)) {
            fin[n_fin++] = j;
            b->done[j] = 1;
            b->T[b->col_of[j]] = t;
            b->converged[b->col_of[j]] = ok;
        }
        n_done += b->done[j];
    }
    if (!n_fin)
        return w - n_done;
    for (int64_t i = 0; i < n; i++)
        for (int64_t f = 0; f < n_fin; f++) {
            b->out_d[b->col_of[fin[f]] * n + i] = b->h_d[i * w + fin[f]];
            b->out_u[b->col_of[fin[f]] * n + i] = b->h_u[i * w + fin[f]];
        }
    if (n_done < w && 2 * n_done >= w)
        compact(b, n);
    return w - n_done;
}

/* out = row r of the CSR (ptr, idx, val) times x */
INLINE void csr_row(const int32_t *ptr, const int32_t *idx, const double *val, int64_t r,
                    const double *x, double *out, const int W)
{
    vec acc[MAX_WIDTH / LANES];
    v2 pair[LANES / 2];
    double last = 0.0;
    for (int v = 0; v < W / LANES; v++)
        acc[v] = (vec){0.0};
    for (int p = 0; p < W % LANES / 2; p++)
        pair[p] = (v2){0.0, 0.0};
    for (int32_t jj = ptr[r]; jj < ptr[r + 1]; jj++) {
        const double a = val[jj];
        const double *xj = x + (int64_t)idx[jj] * W;
        for (int v = 0; v < W / LANES; v++)
            acc[v] += a * loadv(xj + LANES * v);
        for (int p = 0; p < W % LANES / 2; p++)
            pair[p] += a * load2(xj + VEC_END(W) + 2 * p);
        if (W & 1)
            last += a * xj[W - 1];
    }
    for (int v = 0; v < W / LANES; v++)
        storev(out + LANES * v, acc[v]);
    for (int p = 0; p < W % LANES / 2; p++)
        store2(out + VEC_END(W) + 2 * p, pair[p]);
    if (W & 1)
        out[W - 1] = last;
}

/* out = the CSR (ptr, idx, val) of k rows times the vector x: scipy's
 * csr_matvec, bit for bit */
void matvec(const int32_t *ptr, const int32_t *idx, const double *val, int64_t k,
            const double *x, double *out)
{
    for (int64_t r = 0; r < k; r++)
        csr_row(ptr, idx, val, r, x, out + r, 1);
}

/* sector[s] = sector_op row s times h_d, for the listed sectors */
INLINE void sector_rows_w(const Ops *o, const intptr_t *rows, int64_t k, const double *h_d,
                          double *sector, const int W)
{
    for (int64_t t = 0; t < k; t++) {
        const int64_t s = rows ? rows[t] : t;
        csr_row(o->sector_ptr, o->sector_idx, o->sector_val, s, h_d, sector + s * W, W);
    }
}

static int sector_rows(const Ops *o, int W, const intptr_t *rows, int64_t k, const double *h_d,
                       double *sector)
{
#define CALL(w) sector_rows_w(o, rows, k, h_d, sector, w)
    DISPATCH(W)
#undef CALL
}

/* out[t] = clip(1 - the largest down_op product over the groups of firm
 * rows[t], 0, 1), or 1 for a firm with no groups. The minimum of clip(1 -
 * y) over the groups is clip(1 - max y) bit for bit: both maps are
 * monotone. */
INLINE void down_rows_w(const Ops *o, const intptr_t *rows, int64_t k, const double *q,
                        double *out, const int W)
{
    const int32_t *gp = o->group_ptr;
    for (int64_t t = 0; t < k; t++) {
        const int64_t i = rows ? rows[t] : t;
        double top[MAX_WIDTH], y[MAX_WIDTH];
        const int32_t g0 = gp[i], g1 = gp[i + 1];
        if (g0 == g1) {
            for (int c = 0; c < W; c++)
                out[t * W + c] = 1.0;
            continue;
        }
        csr_row(o->down_ptr, o->down_idx, o->down_val, g0, q, top, W);
        for (int32_t g = g0 + 1; g < g1; g++) {
            csr_row(o->down_ptr, o->down_idx, o->down_val, g, q, y, W);
            max_row(top, y, W);
        }
        clip_row(out + t * W, 1.0, top, 1, W);
    }
}

static int down_rows(const Ops *o, int W, const intptr_t *rows, int64_t k, const double *q,
                     double *out)
{
#define CALL(w) down_rows_w(o, rows, k, q, out, w)
    DISPATCH(W)
#undef CALL
}

/* out[t] = clip(up_op row r times h_u + u_resid[r], 0, 1), r = rows[t] */
INLINE void up_rows_w(const Ops *o, const intptr_t *rows, int64_t k, const double *h_u,
                      double *out, const int W)
{
    for (int64_t t = 0; t < k; t++) {
        const int64_t r = rows ? rows[t] : t;
        csr_row(o->up_ptr, o->up_idx, o->up_val, r, h_u, out + t * W, W);
        clip_row(out + t * W, o->u_resid[r], out + t * W, 0, W);
    }
}

static int up_rows(const Ops *o, int W, const intptr_t *rows, int64_t k, const double *h_u,
                   double *out)
{
#define CALL(w) up_rows_w(o, rows, k, h_u, out, w)
    DISPATCH(W)
#undef CALL
}

/* One iteration of every row: the sector sums, q, the new levels hd_new and
 * hu_new, and per column the largest decrement over both recursions. */
static int whole(const Ops *o, int W, const double *h_d, const double *h_u, double *hd_new,
                 double *hu_new, double *q, double *sector, double *dec)
{
    sector_rows(o, W, NULL, o->n_sectors, h_d, sector);
    q_rows(o, W, NULL, o->n, sector, h_d, q);
    down_rows(o, W, NULL, o->n, q, hd_new);
    up_rows(o, W, NULL, o->n, h_u, hu_new);
#define CALL(w) largest_decrement_w(o->n, h_d, h_u, hd_new, hu_new, dec, w)
    DISPATCH(W)
#undef CALL
}

/* mark[c] = 1 for every column c with an entry in the listed rows of the CSR
 * structure (ptr, idx); nothing is copied. Returns the sum of count_ptr[c + 1]
 * - count_ptr[c] over the columns this call marks, and stops after the row
 * that takes the sum past limit. */
static int64_t mark_columns(const int32_t *ptr, const int32_t *idx, const intptr_t *rows,
                            int64_t k, uint8_t *mark, const int32_t *count_ptr, int64_t limit)
{
    int64_t total = 0;
    for (int64_t t = 0; t < k && total <= limit; t++)
        for (int32_t jj = ptr[rows[t]]; jj < ptr[rows[t] + 1]; jj++) {
            const int32_t c = idx[jj];
            if (!mark[c]) {
                mark[c] = 1;
                total += count_ptr[c + 1] - count_ptr[c];
            }
        }
    return total;
}

/* Iteration 1 of a block: all-ones levels, whose step would move no
 * uncapped level (see prodrisk.cascade._iterate), so each column's
 * decrement is its largest 1 - cap; the caps follow in step_block. Every
 * column is live and in its own place. A block that may run row-subset
 * steps starts them here: the sector sums of the all-ones levels, q = sigma
 * (1 - 1) = +0.0, and the capped firms as the damaged and changed ones. */
static void start(const Ops *o, Block *b)
{
    const int64_t n = o->n, w = b->w;
    for (int64_t p = 0; p < n * w; p++)
        b->h_d[p] = b->h_u[p] = 1.0;
    for (int64_t c = 0; c < w; c++) {
        b->dec[c] = 0.0;
        b->done[c] = 0;
        b->col_of[c] = c;
    }
    for (int64_t k = 0; k < b->n_caps; k++) {
        double *d = b->dec + b->cap_at[k] % w;
        *d = MAX(*d, 1.0 - b->cap_val[k]);
    }
    if (b->budget < 0)
        return;
    sector_rows(o, w, NULL, o->n_sectors, b->h_d, b->sector);
    memset(b->q, 0, n * w * sizeof *b->q);
    memset(b->damaged, 0, n);
    for (int64_t k = 0; k < b->n_caps; k++)
        b->damaged[b->cap_at[k] / w] = 1;
    b->n_changed_d = b->n_changed_u = b->recomputed = 0;
    for (int64_t i = 0; i < n; i++)
        if (b->damaged[i])
            b->changed_d[b->n_changed_d++] = b->changed_u[b->n_changed_u++] = i;
}

/* One iteration, before the caps, that recomputes only the rows whose
 * inputs changed in the last one, in place:
 *   - the sums of the sectors of changed_d, and q of the damaged firms (h_d
 *     < 1 somewhere) of those sectors, changed_d among them; where h_d == 1,
 *     q is +0.0 whatever sigma is, so no other firm's q moves;
 *   - every group of every buyer of a firm whose q was recomputed, found
 *     through up_op's supplier -> buyer index;
 *   - the up_op rows of the suppliers of changed_u: the columns of their
 *     down_op rows.
 * A row computed again from bitwise-equal inputs gives the same bits, so
 * every other row keeps its value, and its decrement is exactly 0; a done
 * column's decrement counts as 0. Returns 0, with nothing changed, when the
 * rows to recompute hold more nonzeros than the budget; that is decided
 * while their rows are marked, before any product. The new rows go to the
 * successor buffers, free while row subsets run. */
static int rows_step(const Ops *o, Block *b)
{
    const int64_t n = o->n, w = b->w, budget = b->budget;
    const int32_t *sector_of = o->sector_of;
    for (int64_t k = 0; k < b->n_changed_d; k++)
        b->sector_mark[sector_of[b->changed_d[k]]] = 1;
    int64_t n_q = 0;
    for (int64_t i = 0; i < n; i++)
        if (b->damaged[i] && b->sector_mark[sector_of[i]])
            b->rows_q[n_q++] = i;
    const int64_t n_s = collect(b->sector_mark, o->n_sectors, b->rows_s);

    /* the buyers of the moved q, and the suppliers of changed_u: the rows to recompute */
    const int64_t nnz_down = mark_columns(o->up_ptr, o->up_idx, b->rows_q, n_q, b->mark,
                                          b->in_ptr, budget);
    const int64_t n_d = collect(b->mark, n, b->rows_d);
    if (nnz_down > budget)
        return 0;
    const int64_t nnz_up = mark_columns(b->in_ptr, o->down_idx, b->changed_u, b->n_changed_u,
                                        b->mark, o->up_ptr, budget - nnz_down);
    const int64_t n_u = collect(b->mark, n, b->rows_u);
    if (nnz_down + nnz_up > budget)
        return 0;

    sector_rows(o, w, b->rows_s, n_s, b->h_d, b->sector);
    q_rows(o, w, b->rows_q, n_q, b->sector, b->h_d, b->q);
    down_rows(o, w, b->rows_d, n_d, b->q, b->hd_new);
    up_rows(o, w, b->rows_u, n_u, b->h_u, b->hu_new);
    for (int64_t c = 0; c < w; c++)
        b->dec[c] = 0.0;
    const int64_t moved_d = apply_rows(w, b->rows_d, n_d, b->h_d, b->hd_new, b->done, b->dec,
                                       b->rows_d);
    const int64_t moved_u = apply_rows(w, b->rows_u, n_u, b->h_u, b->hu_new, b->done, b->dec,
                                       b->rows_u);
    SWAP(b->changed_d, b->rows_d);
    SWAP(b->changed_u, b->rows_u);
    b->n_changed_d = moved_d, b->n_changed_u = moved_u;
    b->recomputed = nnz_down + nnz_up;
    for (int64_t k = 0; k < moved_d; k++)
        b->damaged[b->changed_d[k]] = 1;
    return 1;
}

/* Iteration t of the block: at t = 1 its start; later a row-subset step
 * while the budget allows, else a whole step; then the caps, then finish.
 * A step after a row-subset step that recomputed more than futile nonzeros
 * runs whole without marking a row (STEP_DECLINED): the rows to recompute
 * only grow as a cascade spreads, so such a step would nearly always mark
 * them only to pass the budget. dec receives each column's largest decrement, taken
 * before the caps, and ran what ran (STEP_*). Returns the number of live
 * columns left, or -1 for a width outside 1 .. MAX_WIDTH. */
int64_t step_block(const Ops *o, Block *b, int64_t t)
{
    if (b->w < 1 || b->w > MAX_WIDTH)
        return -1;
    if (t == 1) {
        start(o, b);
        b->ran = STEP_CAPS;
    } else if (b->budget >= 0 && b->recomputed <= b->futile && rows_step(o, b)) {
        b->ran = STEP_ROWS;
    } else {
        b->ran = b->budget >= 0 ? STEP_DECLINED : STEP_WHOLE;
        b->budget = -1;
        whole(o, b->w, b->h_d, b->h_u, b->hd_new, b->hu_new, b->q, b->sector, b->dec);
        SWAP(b->h_d, b->hd_new);
        SWAP(b->h_u, b->hu_new);
    }
    apply_caps(b);
    return finish(b, o->n, t);
}

/* The lanes of the widest build this CPU runs: 8 with AVX-512F, 4 with
 * AVX2, else 2. prodrisk.kernel asks the portable build before it loads a
 * vector build */
int64_t vector_lanes(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return 8;
    if (__builtin_cpu_supports("avx2"))
        return 4;
#endif
    return 2;
}
