/* Compiled block loops of the "jit" kernel (see kernels.py).
 *
 * block_step is the whole block for node k = 1, node k = 2, the edge
 * model and lazy k = 1: it draws the block's uniforms from the batch
 * generator's bit stream (NumPy's bitgen next_double, the function
 * Generator.random calls once per double, in C order), decodes every
 * active replica's selections with the same double operations as the
 * NumPy decode (selection.py: draw_node_block, draw_edge_block,
 * split_lazy, SamplingBackend._slots), range-checks every decoded index,
 * and only then runs the rounds.  Every other block (k > 2, lazy k > 1,
 * selection recording) executes a NumPy-built BlockPlan in
 * run_block_fused, the one plan executor.
 *
 * block_step runs the rounds with the same IEEE operations, in the same
 * order, as run_block_fused: per round, gather every active replica's
 * entries, compute the updates, then scatter them.  Built with
 * -ffp-contract=off so no multiply-add is fused and the results are
 * bit-identical to the NumPy kernel.
 *
 * It checks all indices before its first write and returns -1 (state
 * untouched) if any is out of range, 0 on success.  A NULL old_blk
 * selects plain mode; otherwise old_blk and new_blk receive each round's
 * (old, new) written values, and new_blk doubles as the per-round
 * scratch.
 *
 * consensus_run is run_to_consensus_batch's loop for such a batch: it
 * runs blocks up to each check boundary and there does the driver's
 * witness check (consensus_check), until a check flags a row, the step
 * budget ends or, when asked, after one check.
 *
 * detect_block is run_until_phi's detection pass over a recorded block:
 * it folds the per-round moment increments and finds each replica's
 * first round with phi <= epsilon, for every block kernel.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

/* The batch's model and sampling source, filled in by kernels.BlockStepper
 * (its ctypes mirror is kernels._model_struct).  The sampling source is
 * either the edge list (tails/heads, `edges` entries; k = 1) or, for the
 * node model, the CSR arrays: node u's neighbours are table[offsets[u]]
 * onwards, and table_size bounds table.  degrees holds every node's degree
 * and pi (irregular graphs, else NULL) every node's stationary weight. */
struct model {
    int64_t n, replicas, k, lazy;
    const int64_t *table;
    const int64_t *offsets;
    int64_t table_size;
    const int64_t *degrees, *tails, *heads;
    int64_t edges;
    double alpha, beta_k;
    const double *pi;
};

/* A bit generator's next_double: one uniform in [0, 1) per call. */
typedef double (*next_double_fn)(void *);

static double seconds(void)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (double)now.tv_sec + (double)now.tv_nsec * 1e-9;
}

/* Packed rounds: row r of cat is [neighbour_1 | ... | neighbour_k | write],
 * each part `active` wide.  new = t_0 + t_1 (+ t_2 ... + t_k), with
 * t_p = flat[neighbour_p] * beta_k and t_k = flat[write] * alpha. */
static void execute_cat(double *flat, const int64_t *cat, int64_t rounds,
                        int64_t active, int64_t k, double beta_k,
                        double alpha, double *scratch, double *old_blk,
                        double *new_blk)
{
    const int64_t width = (k + 1) * active;
    for (int64_t r = 0; r < rounds; r++) {
        const int64_t *row = cat + r * width;
        const int64_t *write = row + k * active;
        double *next = old_blk ? new_blk + r * active : scratch;
        if (old_blk) {
            double *old = old_blk + r * active;
            for (int64_t j = 0; j < active; j++) {
                old[j] = flat[write[j]];
            }
        }
        for (int64_t j = 0; j < active; j++) {
            double acc = flat[row[j]] * beta_k
                + flat[row[active + j]] * (k == 1 ? alpha : beta_k);
            for (int64_t p = 2; p <= k; p++) {
                acc += flat[row[p * active + j]] * (p == k ? alpha : beta_k);
            }
            next[j] = acc;
        }
        for (int64_t j = 0; j < active; j++) {
            flat[write[j]] = next[j];
        }
    }
}

/* mask ? a : b for an all-ones or all-zeros mask, without a branch. */
static inline double select_bits(uint64_t mask, double a, double b)
{
    union { double d; uint64_t u; } x = {a}, y = {b};
    x.u = (x.u & mask) | (y.u & ~mask);
    return x.d;
}

/* Lazy k = 1 rounds: replica j updates in round r only where keep[r, j];
 * new = alpha * old + beta * flat[gather].  Round r's write and gather
 * indices start at r * stride.  Skipped entries record (0, 0), so their
 * moment increments vanish, and write back the old value they gathered:
 * decode gives every entry an index in its own replica's row, so no
 * round writes one entry twice, and no coin costs a branch. */
static void execute_lazy(double *flat, const int64_t *write_idx,
                         const int64_t *gather_idx, int64_t stride,
                         const uint8_t *keep, double alpha, double beta,
                         int64_t rounds, int64_t active, double *scratch,
                         double *old_blk, double *new_blk)
{
    for (int64_t r = 0; r < rounds; r++) {
        const int64_t *write = write_idx + r * stride;
        const int64_t *gather = gather_idx + r * stride;
        const uint8_t *kept = keep + r * active;
        double *next = old_blk ? new_blk + r * active : scratch;
        for (int64_t j = 0; j < active; j++) {
            const uint64_t on = -(uint64_t)kept[j];
            const double old = flat[write[j]];
            next[j] = select_bits(on, alpha * old + beta * flat[gather[j]],
                                  0.0);
            if (old_blk) {
                old_blk[r * active + j] = select_bits(on, old, 0.0);
            }
        }
        for (int64_t j = 0; j < active; j++) {
            flat[write[j]] = select_bits(-(uint64_t)kept[j], next[j],
                                         flat[write[j]]);
        }
    }
}

static int model_ok(const struct model *m)
{
    return m && (m->tails ? m->heads != NULL
                 : m->table && m->offsets && m->degrees)
        && m->k >= 1 && m->k <= 2 && (!m->tails || m->k == 1)
        && (!m->lazy || m->k == 1);
}

/* rows lists the active replicas in increasing order (NULL: all of them). */
static int rows_ok(const int64_t *rows, int64_t active, int64_t replicas)
{
    if (!rows) {
        return active == replicas;
    }
    for (int64_t j = 0; j < active; j++) {
        if (rows[j] < (j ? rows[j - 1] + 1 : 0) || rows[j] >= replicas) {
            return 0;
        }
    }
    return 1;
}

/* Uniforms drawn per next_double burst: a tight loop of calls, as in
 * NumPy's fill, kept apart from the decode (a 4 KB stack buffer). */
enum { DRAW_CHUNK = 512 };

/* Draw one block's (rounds, replicas) uniforms in C order and decode the
 * active columns rows[0..active) into index, BlockPlan's packed cat_idx
 * layout (rounds, (k + 1) * active); keep (lazy only) receives the coins
 * and weights (when not NULL) the pi of each written node.  Frozen
 * replicas' variates are drawn and discarded.  Returns -1 at the first
 * out-of-range index, 0 on success.  decode below calls it with constant
 * k, lazy and edge, so each shape compiles without its shape branches. */
static inline __attribute__((always_inline)) int decode_shape(
    const struct model *m, void *state, next_double_fn next,
    const int64_t *rows, int64_t active, int64_t rounds, int64_t *index,
    uint8_t *keep, double *weights, const int64_t k, const int lazy,
    const int edge)
{
    const int64_t n = m->n, replicas = m->replicas;
    const int64_t width = (k + 1) * active;
    const int64_t table_size = m->table_size;
    const int64_t edges = m->edges;
    const int64_t *table = m->table, *offsets = m->offsets;
    const int64_t *degrees = m->degrees, *tails = m->tails, *heads = m->heads;
    const double *pi = m->pi;
    const double scale = edge ? (double)edges : (double)n;
    double drawn[DRAW_CHUNK];
    for (int64_t r = 0; r < rounds; r++) {
        int64_t *row = index + r * width;
        int64_t j = 0;
        for (int64_t first_drawn = 0; first_drawn < replicas;
             first_drawn += DRAW_CHUNK) {
            const int64_t count = replicas - first_drawn < DRAW_CHUNK
                ? replicas - first_drawn : DRAW_CHUNK;
            for (int64_t c = 0; c < count; c++) {
                drawn[c] = next(state);
            }
            for (; j < active; j++) {
                const int64_t replica = rows ? rows[j] : j;
                if (replica >= first_drawn + count) {
                    break;
                }
                double x = drawn[replica - first_drawn];
                if (lazy) {
                    /* split_lazy: the leading bit is the coin, 2u mod 1
                     * the remaining uniform. */
                    const double doubled = x * 2.0;
                    const uint8_t coin = doubled >= 1.0;
                    keep[r * active + j] = coin;
                    x = doubled - (double)coin;
                }
                x = x * scale;
                const int64_t pick = (int64_t)x;
                int64_t node, first, second = 0;
                if (edge) {
                    if ((uint64_t)pick >= (uint64_t)edges) {
                        return -1;
                    }
                    node = tails[pick];
                    first = heads[pick];
                } else {
                    node = pick;
                    if ((uint64_t)node >= (uint64_t)n) {
                        return -1;
                    }
                    x = x - (double)node;
                    const int64_t degree = degrees[node];
                    int64_t slot, slot2 = 0;
                    if (k == 1) {
                        if (degree < 1) {
                            return -1;
                        }
                        slot = (int64_t)(x * (double)degree);
                    } else {
                        /* One of the deg * (deg - 1) ordered distinct
                         * pairs. */
                        const int64_t degree_m1 = degree - 1;
                        if (degree_m1 < 1) {
                            return -1;
                        }
                        const int64_t pair =
                            (int64_t)(x * (double)(degree * degree_m1));
                        slot = pair / degree_m1;
                        slot2 = pair % degree_m1;
                        slot2 += slot2 >= slot;
                    }
                    const int64_t base = offsets[node];
                    if ((uint64_t)base >= (uint64_t)table_size
                        || slot >= table_size - base
                        || slot2 >= table_size - base) {
                        return -1;
                    }
                    first = table[base + slot];
                    if (k == 2) {
                        second = table[base + slot2];
                    }
                }
                /* A node model's node was checked when it was picked. */
                if ((edge && (uint64_t)node >= (uint64_t)n)
                    || (uint64_t)first >= (uint64_t)n
                    || (uint64_t)second >= (uint64_t)n) {
                    return -1;
                }
                const int64_t offset = replica * n;
                row[j] = offset + first;
                if (k == 2) {
                    row[active + j] = offset + second;
                }
                row[k * active + j] = offset + node;
                if (weights) {
                    weights[r * active + j] = pi[node];
                }
            }
        }
    }
    return 0;
}

static int decode(const struct model *m, void *state, next_double_fn next,
                  const int64_t *rows, int64_t active, int64_t rounds,
                  int64_t *index, uint8_t *keep, double *weights)
{
#define DECODE(k, lazy, edge) decode_shape(m, state, next, rows, active, \
    rounds, index, keep, weights, k, lazy, edge)
    if (m->tails) {
        return m->lazy ? DECODE(1, 1, 1) : DECODE(1, 0, 1);
    }
    if (m->k == 2) {
        return DECODE(2, 0, 0);
    }
    return m->lazy ? DECODE(1, 1, 0) : DECODE(1, 0, 0);
#undef DECODE
}

static void execute(const struct model *m, double *flat, const int64_t *index,
                    const uint8_t *keep, int64_t rounds, int64_t active,
                    double *scratch, double *old_blk, double *new_blk)
{
    if (m->lazy) {
        execute_lazy(flat, index + active, index, 2 * active, keep, m->alpha,
                     m->beta_k, rounds, active, scratch, old_blk, new_blk);
    } else {
        execute_cat(flat, index, rounds, active, m->k, m->beta_k, m->alpha,
                    scratch, old_blk, new_blk);
    }
}

/* Draw, decode and run one block.
 *
 * flat is the (replicas, n) state and rows[0..active) the active replicas
 * (see decode; index, keep and weights are its outputs).  stamp, when not
 * NULL, receives the CLOCK_MONOTONIC time at which drawing, decoding and
 * the range check ended. */
int block_step(const struct model *m, double *flat, void *state,
               next_double_fn next, const int64_t *rows, int64_t active,
               int64_t rounds, int64_t *index, uint8_t *keep, double *weights,
               double *scratch, double *old_blk, double *new_blk,
               double *stamp)
{
    if (!model_ok(m) || !rows_ok(rows, active, m->replicas) || !next
        || !index || (m->lazy && !keep) || (weights && !m->pi)
        || (old_blk ? !new_blk : !scratch)) {
        return -1;
    }
    if (decode(m, state, next, rows, active, rounds, index, keep, weights)) {
        return -1;
    }
    if (stamp) {
        *stamp = seconds();
    }
    execute(m, flat, index, keep, rounds, active, scratch, old_blk, new_blk);
    return 0;
}

/* The witness check of run_to_consensus_batch over the active rows.
 *
 * hi and lo hold each replica's witness nodes (argmax and argmin of its
 * last scan).  A row whose gap |x_hi - x_lo| is not above tol (a NaN gap
 * included) is scanned: its argmax and argmin, with NumPy's semantics
 * (the first occurrence, and the first NaN wins), replace the witnesses,
 * and flags[j] is set when x_top - x_bottom <= tol.  Returns the number
 * of rows scanned, or -1 (nothing written) on a NULL buffer or an
 * out-of-range witness. */
int64_t consensus_check(const double *flat, int64_t n, int64_t replicas,
                        const int64_t *rows, int64_t active, double tol,
                        int64_t *hi, int64_t *lo, uint8_t *flags)
{
    if (!flat || !hi || !lo || !flags || n < 1
        || !rows_ok(rows, active, replicas)) {
        return -1;
    }
    for (int64_t j = 0; j < active; j++) {
        const int64_t replica = rows ? rows[j] : j;
        if ((uint64_t)hi[replica] >= (uint64_t)n
            || (uint64_t)lo[replica] >= (uint64_t)n) {
            return -1;
        }
    }
    int64_t scanned = 0;
    for (int64_t j = 0; j < active; j++) {
        const int64_t replica = rows ? rows[j] : j;
        const double *x = flat + replica * n;
        flags[j] = 0;
        if (fabs(x[hi[replica]] - x[lo[replica]]) > tol) {
            continue;
        }
        scanned++;
        int64_t top = 0, bottom = 0;
        double most = x[0], least = x[0];
        if (!isnan(most)) {
            for (int64_t i = 1; i < n; i++) {
                if (!(x[i] <= most)) {
                    most = x[i];
                    top = i;
                    if (isnan(most)) {
                        break;
                    }
                }
            }
            for (int64_t i = 1; i < n; i++) {
                if (!(x[i] >= least)) {
                    least = x[i];
                    bottom = i;
                    if (isnan(least)) {
                        break;
                    }
                }
            }
        }
        hi[replica] = top;
        lo[replica] = bottom;
        flags[j] = x[top] - x[bottom] <= tol;
    }
    return scanned;
}

/* run_to_consensus_batch's loop, from one check boundary on.
 *
 * Each interval of check_every rounds (the last cut to the budget) runs
 * in blocks of at most `block` rounds, as BatchAveragingProcess.run
 * would cut it, and ends with consensus_check.  The loop returns after
 * the first check that flags a row (flags as consensus_check leaves
 * them), when the budget of rounds is spent, or after one check when
 * `once` is set.  stats receives the rounds, blocks and checks run and
 * the rows scanned; times (when not NULL) the seconds spent drawing and
 * decoding, executing, and checking.  index, keep and scratch are
 * block_step's plain-mode buffers for blocks of up to
 * min(block, check_every, budget) rounds.  Returns -1 before any work on
 * bad arguments, and -1 after the blocks already run (counted in stats)
 * when a decoded index is out of range; 0 otherwise. */
int consensus_run(const struct model *m, double *flat, void *state,
                  next_double_fn next, const int64_t *rows, int64_t active,
                  int64_t *index, uint8_t *keep, double *scratch,
                  int64_t block, int64_t check_every, int64_t budget,
                  double tol, int64_t *hi, int64_t *lo, uint8_t *flags,
                  int64_t once, int64_t *stats, double *times)
{
    if (!model_ok(m) || !rows_ok(rows, active, m->replicas) || !next
        || !index || (m->lazy && !keep) || !scratch || !hi || !lo || !flags
        || !stats || active < 1 || block < 1 || check_every < 1
        || budget < 1) {
        return -1;
    }
    for (int64_t s = 0; s < 4; s++) {
        stats[s] = 0;
    }
    for (int64_t s = 0; times && s < 3; s++) {
        times[s] = 0.0;
    }
    for (int64_t used = 0; used < budget;) {
        const int64_t interval =
            check_every < budget - used ? check_every : budget - used;
        for (int64_t left = interval; left > 0;) {
            const int64_t rounds = block < left ? block : left;
            const double start = times ? seconds() : 0.0;
            if (decode(m, state, next, rows, active, rounds, index, keep,
                       NULL)) {
                return -1;
            }
            const double decoded = times ? seconds() : 0.0;
            execute(m, flat, index, keep, rounds, active, scratch, NULL,
                    NULL);
            if (times) {
                const double executed = seconds();
                times[0] += decoded - start;
                times[1] += executed - decoded;
            }
            stats[0] += rounds;
            stats[1] += 1;
            left -= rounds;
        }
        used += interval;
        const double start = times ? seconds() : 0.0;
        const int64_t scanned = consensus_check(flat, m->n, m->replicas, rows,
                                                active, tol, hi, lo, flags);
        if (scanned < 0) {
            return -1;
        }
        if (times) {
            times[2] += seconds() - start;
        }
        stats[2] += 1;
        stats[3] += scanned;
        int flagged = 0;
        for (int64_t j = 0; j < active && !flagged; j++) {
            flagged = flags[j];
        }
        if (flagged || once) {
            break;
        }
    }
    return 0;
}

/* Convergence detection over one recorded block (run_until_phi).
 *
 * old_blk and new_blk hold the block's (rounds, active) written values;
 * the pi weight of each written entry is weights[r * active + j], or the
 * scalar weight when weights is NULL (then weights_count must be 0,
 * otherwise rounds * active).  Per column, in round order, it folds
 *
 *     d1 = w * (new - old),  d2 = d1 * (new + old)
 *
 * into s1 and s2 (the pre-block moments on entry, the post-block moments
 * on return) with the operations of the NumPy fold: one multiply per
 * increment and one add per round, so the sums are the seeded cumsum's.
 * Among the first `scan` rounds, first[j] receives the first round whose
 * phi = s2 - s1 * s1 is <= epsilon (-1 if none; a NaN phi never counts)
 * and cross1/cross2 the moments just after it.  phi_last receives the
 * last round's max(phi, 0).  Returns -1 on a NULL buffer or inconsistent
 * sizes (nothing written), 0 on success. */
int detect_block(const double *old_blk, const double *new_blk,
                 int64_t rounds, int64_t active, const double *weights,
                 int64_t weights_count, double weight, int64_t scan,
                 double epsilon, double *s1, double *s2, int64_t *first,
                 double *cross1, double *cross2, double *phi_last)
{
    if (!old_blk || !new_blk || !s1 || !s2 || !first || !cross1 || !cross2
        || !phi_last || rounds < 1 || active < 0 || scan < 0 || scan > rounds
        || weights_count != (weights ? rounds * active : 0)) {
        return -1;
    }
    for (int64_t j = 0; j < active; j++) {
        first[j] = -1;
    }
    for (int64_t r = 0; r < rounds; r++) {
        const double *before = old_blk + r * active;
        const double *after = new_blk + r * active;
        const double *w = weights ? weights + r * active : NULL;
        const int scanned = r < scan;
        for (int64_t j = 0; j < active; j++) {
            const double d1 = (w ? w[j] : weight) * (after[j] - before[j]);
            const double d2 = d1 * (after[j] + before[j]);
            const double m1 = s1[j] + d1;
            const double m2 = s2[j] + d2;
            s1[j] = m1;
            s2[j] = m2;
            if (scanned && first[j] < 0 && m2 - m1 * m1 <= epsilon) {
                first[j] = r;
                cross1[j] = m1;
                cross2[j] = m2;
            }
        }
    }
    for (int64_t j = 0; j < active; j++) {
        const double phi = s2[j] - s1[j] * s1[j];
        phi_last[j] = phi < 0.0 ? 0.0 : phi;
    }
    return 0;
}
