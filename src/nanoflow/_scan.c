/* The compiled library of nanoflow, three entry points, each for every
 * device of a run (or every trace of a pass) in one call, with the Python
 * loops' float operations in their order; simcore builds it with
 * -ffp-contract=off -fno-fast-math so that no operation is fused or
 * reordered, and both paths give the same bytes.
 *
 * nf_walk is nanoflow.vasculature.simulate_mobility's walk.  Each bifurcation
 * of more than one successor draws from the walk's own numpy generator, as
 * Generator.integers(k) does (numpy's buffered_bounded_lemire_uint32, Lemire,
 * "Fast Random Integer Generation in an Interval", 2019), so the walk reads
 * the same stream as the Python loop.
 *
 * nf_upsample is one pass of nanoflow.vasculature.upsample_traces.  The
 * jitter stays numpy's: each trace's standard normals are drawn from its own
 * generator before the call, and the kernel scales them as Generator.normal
 * does (0.0 + sigma * z).
 *
 * nf_scan is phase 2 of nanoflow.simcore.run_simulation, the per-device scan.
 * Records, energy rows and consumption come out bit for bit the same as the
 * Python scan's, which is this loop on the same inputs.  A device whose
 * harvest leaves a charge grid cut short (where energy_after takes its
 * closed form) or whose cycle count reaches 2^62 is flagged, and simcore
 * scans it again in Python.
 *
 * nf_scan's buffers, each part following the one before:
 *   real:      the energy numbers (CFG); per tick grid, its tick times and
 *              its off-tick sample times; the beacons' times; their
 *              episode gaps
 *   index:     per device, (its tick grid, beacon count, hit count); per
 *              tick grid, (tick count, off-tick sample count, row tick
 *              count); per tick grid, its row ticks (the ticks done when
 *              each on-tick row is due); the beacons' in-heart flags; the
 *              hit ticks
 *   out_real:  consumed J per device; the circulation time each beacon's
 *              response sent; row energies, n_rows per device
 *   out_index: per device, nonzero to scan it again in Python; the event
 *              bit each beacon's response sent, which must come in as -1
 *              (no response); the rows' powered flags
 * Beacons and hits go device by device, each device's in time order. */
#include <math.h>
#include <stdint.h>

enum { T_CYCLE, E_MAX, E_TURN_ON, E_TURN_OFF, COST_SENSE, RX_COST, TX_COST, CFG };

#define T_EPS 1e-9
#define CYCLE_LIMIT 4611686018427387904.0   /* 2^62 */

struct tables { const double *grid; const int64_t *low, *drop; int64_t size; };

struct device {   /* one device's slices of the run's buffers */
    const double *tick, *off_t, *beacon_t, *gap;
    const int64_t *dues, *heart, *hits;
    int64_t n_ticks, n_off, n_dues, n_beacons, n_hits;
    double *circulation, *row_energy;   /* row_energy NULL: no rows */
    int64_t *answer, *row_powered;
};

struct capacitor {   /* base: energy's grid index; spent: once a sense tick is paid; -1: none */
    double energy, phase, last_adv;
    int64_t base, spent;
    int powered;
};

/* Harvest up to time t, as advance_harvest does: int(total / t_cycle)
 * whole cycles, a gather from the tables while the energy is on them, else
 * energy_after's bisect and clamp; then power on at e_turn_on.  Nonzero
 * where energy_after takes the closed form or the count reaches 2^62. */
static int harvest_to(struct capacitor *c, double t, const double *cfg, const struct tables *tb)
{
    if (!(t > c->last_adv))
        return 0;
    double total = c->phase + (t - c->last_adv), q = total / cfg[T_CYCLE];
    if (!(q < CYCLE_LIMIT))
        return 1;
    int64_t cycles = (int64_t)q, n = c->base + cycles;
    c->phase = total - (double)cycles * cfg[T_CYCLE];
    c->last_adv = t;
    if (cycles > 0 && c->energy < cfg[E_MAX]) {
        if (c->base < 0 || n >= tb->size) {
            if (!(c->energy <= tb->grid[tb->size - 1]))
                return 1;
            int64_t lo = 0, hi = tb->size;   /* bisect_left */
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (tb->grid[mid] < c->energy)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            n = lo + cycles;
            if (n >= tb->size) {
                if (tb->grid[tb->size - 1] != cfg[E_MAX])
                    return 1;
                n = tb->size - 1;
            }
        }
        c->energy = tb->grid[n];
        c->base = tb->low[n];
        c->spent = tb->drop[n];
    }
    if (!c->powered && c->energy >= cfg[E_TURN_ON])
        c->powered = 1;
    return 0;
}

/* Spend cost as try_consume does; nonzero if it was paid.  Off the tables
 * after a spend, unless a sense tick's (spent) or a free one. */
static int spend(struct capacitor *c, double cost, const double *cfg)
{
    if (!c->powered || c->energy < cost)
        return 0;
    c->energy -= cost;
    if (c->energy <= cfg[E_TURN_OFF])
        c->powered = 0;
    if (cost > 0.0)
        c->base = c->spent = -1;
    return 1;
}

static int scan_device(const struct device *dv, const double *cfg, const struct tables *tb,
                       double *consumed_out)
{
    struct capacitor c = { 0.0, 0.0, 0.0, tb->low[0], tb->drop[0], 0 };   /* grid[0], 0 J */
    double last_reset = 0.0, last_delivered = 0.0, consumed = 0.0;
    int delivered = 0, responded = 0;
    int64_t event_bit = 0, bi = 0, oi = 0, hi = 0, due_i = 0, r = 0;

    for (int64_t i = 0; i <= dv->n_ticks; i++) {   /* tick i; i == n_ticks: the end */
        const double t_tick = i < dv->n_ticks ? dv->tick[i] : INFINITY;
        for (;;) {   /* the items before tick i, in time order, a beacon first at a tie */
            const int sample = oi < dv->n_off && dv->off_t[oi] < t_tick
                               && !(bi < dv->n_beacons && dv->beacon_t[bi] <= dv->off_t[oi]);
            if (!sample && !(bi < dv->n_beacons && dv->beacon_t[bi] <= t_tick))
                break;
            const double t = sample ? dv->off_t[oi] : dv->beacon_t[bi];
            if (harvest_to(&c, t, cfg, tb))
                return 1;
            if (sample) {
                oi++;
                if (dv->row_energy) {
                    dv->row_energy[r] = c.energy;
                    dv->row_powered[r++] = c.powered;
                }
                continue;
            }
            const int64_t b = bi++;   /* a decoded beacon */
            if (!spend(&c, cfg[RX_COST], cfg))
                continue;
            consumed += cfg[RX_COST];
            if (!delivered || t - last_delivered > dv->gap[b] + T_EPS)
                responded = 0;   /* a new episode */
            delivered = 1;
            last_delivered = t;
            const double circulation = t - last_reset;
            const int64_t bit = event_bit;
            if (dv->heart[b]) {
                last_reset = t;
                event_bit = 0;
            }
            if (!responded && spend(&c, cfg[TX_COST], cfg)) {
                consumed += cfg[TX_COST];
                responded = 1;
                dv->answer[b] = bit;
                dv->circulation[b] = circulation;
            }
        }
        if (i == dv->n_ticks)
            break;
        if (harvest_to(&c, t_tick, cfg, tb))
            return 1;
        const int hit = hi < dv->n_hits && dv->hits[hi] == i;
        hi += hit;
        if (c.powered && c.energy >= cfg[COST_SENSE]) {   /* a sense tick, paid */
            c.energy -= cfg[COST_SENSE];
            if (c.energy <= cfg[E_TURN_OFF])
                c.powered = 0;
            c.base = c.spent;
            c.spent = -1;
            consumed += cfg[COST_SENSE];
            event_bit |= hit;
        }
        if (due_i < dv->n_dues && dv->dues[due_i] == i + 1) {   /* a row on this tick */
            due_i++;
            dv->row_energy[r] = c.energy;
            dv->row_powered[r++] = c.powered;
        }
    }
    *consumed_out = consumed;
    return 0;
}

/* Scan the run's n_dev devices on n_grids tick grids and the charge tables
 * grid, low and drop of size entries, recording n_rows rows per device (0:
 * none). */
void nf_scan(const double *grid, const int64_t *low, const int64_t *drop, int64_t size,
             int64_t n_dev, int64_t n_grids, int64_t n_rows, const double *real,
             const int64_t *index, double *out_real, int64_t *out_index)
{
    const struct tables tb = { grid, low, drop, size };
    const int64_t *head = index + 3 * n_dev;   /* per tick grid: its counts */
    int64_t n_beacons = 0, real_end = 0, index_end = 0;
    for (int64_t d = 0; d < n_dev; d++)
        n_beacons += index[3 * d + 1];
    for (int64_t g = 0; g < n_grids; g++) {
        real_end += head[3 * g] + head[3 * g + 1];
        index_end += head[3 * g + 2];
    }
    struct device dv;
    dv.beacon_t = real + CFG + real_end;
    dv.gap = dv.beacon_t + n_beacons;
    dv.heart = head + 3 * n_grids + index_end;
    dv.hits = dv.heart + n_beacons;
    dv.circulation = out_real + n_dev;
    dv.answer = out_index + n_dev;
    for (int64_t d = 0; d < n_dev; d++) {
        const int64_t g = index[3 * d], *counts = head + 3 * g;
        int64_t real_at = 0, index_at = 0;   /* grid g's first tick time and row tick */
        for (int64_t k = 0; k < g; k++) {
            real_at += head[3 * k] + head[3 * k + 1];
            index_at += head[3 * k + 2];
        }
        dv.tick = real + CFG + real_at;
        dv.off_t = dv.tick + counts[0];
        dv.dues = head + 3 * n_grids + index_at;
        dv.n_ticks = counts[0];
        dv.n_off = counts[1];
        dv.n_dues = n_rows ? counts[2] : 0;
        dv.n_beacons = index[3 * d + 1];
        dv.n_hits = index[3 * d + 2];
        dv.row_energy = n_rows ? out_real + n_dev + n_beacons + d * n_rows : 0;
        dv.row_powered = n_rows ? out_index + n_dev + n_beacons + d * n_rows : 0;
        out_index[d] = scan_device(&dv, real, &tb, out_real + d);
        dv.beacon_t += dv.n_beacons;
        dv.gap += dv.n_beacons;
        dv.heart += dv.n_beacons;
        dv.circulation += dv.n_beacons;
        dv.answer += dv.n_beacons;
        dv.hits += dv.n_hits;
    }
}

/* Walk n_dev devices from the heart row for n samples each (one a second),
 * on a graph of per-row vessel lengths and speeds whose row r has successor
 * rows succ[succ_at[r]:succ_at[r + 1]].  Device d's samples (row, arc) fill
 * [d * n, d * n + n); its visits (entry time, row) are
 * [visit_at[d], visit_at[d + 1]), and only the first cap are written.  The
 * draws call next_uint32(state), a numpy bit generator's.  Returns the
 * visit count, which exceeds cap where the visit buffers were too short. */
int64_t nf_walk(const double *length, const double *speed, const int64_t *succ_at,
                const int64_t *succ, int64_t heart, int64_t n_dev, int64_t n,
                uint32_t (*next_uint32)(void *), void *state, int64_t *sample_r,
                double *sample_arc, int64_t *visit_at, double *visit_t, int64_t *visit_r,
                int64_t cap)
{
    int64_t v = 0;
    visit_at[0] = 0;
    for (int64_t d = 0; d < n_dev; d++) {
        int64_t r = heart, *row = sample_r + d * n;
        double arc = 0.0, t_cursor = 0.0, *arcs = sample_arc + d * n;
        if (v < cap) {
            visit_t[v] = 0.0;
            visit_r[v] = r;
        }
        v++;
        row[0] = r;
        arcs[0] = 0.0;
        for (int64_t i = 1; i < n; i++) {
            double remaining = 1.0;
            while (remaining > 0) {
                const double to_end = length[r] - arc, t_exit = to_end / speed[r];
                if (t_exit > remaining) {
                    arc += speed[r] * remaining;
                    t_cursor += remaining;
                    remaining = 0.0;
                    continue;
                }
                remaining -= t_exit;
                t_cursor += t_exit;
                const uint32_t k = (uint32_t)(succ_at[r + 1] - succ_at[r]);
                uint32_t pick = 0;
                if (k > 1) {   /* Generator.integers(k): Lemire's draw, rejecting a biased one */
                    uint64_t m = (uint64_t)next_uint32(state) * k;
                    if ((uint32_t)m < k) {
                        const uint32_t threshold = (UINT32_MAX - (k - 1)) % k;
                        while ((uint32_t)m < threshold)
                            m = (uint64_t)next_uint32(state) * k;
                    }
                    pick = (uint32_t)(m >> 32);
                }
                r = succ[succ_at[r] + pick];
                arc = 0.0;
                if (v < cap) {
                    visit_t[v] = t_cursor;
                    visit_r[v] = r;
                }
                v++;
            }
            row[i] = r;
            arcs[i] = arc;
        }
        visit_at[d + 1] = v;
    }
    return v;
}

/* Upsample k traces of m samples each by the factor n, as
 * upsample_traces' numpy pass does: sample j * n of a trace is its input
 * sample j, and sample j * n + c (0 < c < n) is the point c / n of the way
 * from sample j to sample j + 1, (c / n * (p1 - p0)) + p0, with the vessel
 * id of sample j.  A trace's times are (k, m), its positions (k, m, 3) and
 * its vessel ids (k, m); each comes out as (k, (m - 1) * n + 1, ...).  z is
 * NULL for no jitter, else (k, m - 1, n - 1, 3) standard normals, and each
 * inserted coordinate gets + (0.0 + sigma * z). */
void nf_upsample(int64_t k, int64_t m, int64_t n, double sigma, const double *times,
                 const double *positions, const int64_t *ids, const double *z,
                 double *out_times, double *out_positions, int64_t *out_ids)
{
    const int64_t size = (m - 1) * n + 1;
    for (int64_t i = 0; i < k; i++) {
        const double *t = times + i * m, *p = positions + 3 * i * m;
        const int64_t *v = ids + i * m;
        double *ot = out_times + i * size, *op = out_positions + 3 * i * size;
        int64_t *ov = out_ids + i * size;
        for (int64_t j = 0; j < m; j++) {
            ot[j * n] = t[j];
            ov[j * n] = v[j];
            for (int a = 0; a < 3; a++)
                op[3 * j * n + a] = p[3 * j + a];
            if (j + 1 == m)
                break;
            for (int64_t c = 1; c < n; c++) {
                const double f = (double)c / (double)n;
                ot[j * n + c] = f * (t[j + 1] - t[j]) + t[j];
                ov[j * n + c] = v[j];
                for (int a = 0; a < 3; a++) {
                    double x = f * (p[3 * (j + 1) + a] - p[3 * j + a]) + p[3 * j + a];
                    if (z)
                        x += 0.0 + sigma * *z++;
                    op[3 * (j * n + c) + a] = x;
                }
            }
        }
    }
}
