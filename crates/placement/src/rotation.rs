//! Per-window local search against the global plan, for a runtime that
//! migrates while tasks run.
//!
//! The global plan (one multiple-choice knapsack over whole-run values)
//! keeps an object in the fast tier for the whole run or not at all. An
//! object touched in one window out of four then either wastes its
//! bytes three windows in four or is never promoted. This planner lets
//! such an object hold the fast tier for an *interval* instead: a
//! maximal run of consecutive windows `[s..e]` in which tasks touch it,
//! plus the window `s − 1` in which it is fetched. Candidates — every
//! object's whole-run residency and each of its touch runs — are taken
//! in one greedy pass by value per byte per occupied window, under the
//! fast tier's capacity in every window.
//!
//! The winner is then scheduled window by window under three rules
//! that make the schedule safe to execute and cheap to hide:
//!
//! * **Only idle objects move after window 0.** A move at window
//!   `u ≥ 1` names an object no task of window `u` touches: a fetch
//!   runs one window ahead of the first touch, an eviction takes an
//!   object whose interval has ended. No copy meets a task's pin.
//! * **Evictions only make room.** An object whose interval has ended
//!   stays where it is until a fetch of the same window needs its
//!   bytes; a window's evictions precede its fetches, and the last
//!   window has neither.
//! * **Copies fit the window that hides them.** A window's moves,
//!   priced at the channel's direction-aware rates, must fit into that
//!   window's modelled duration under the placement in force, split
//!   over the workers. Fetches that do not fit are dropped,
//!   lowest density first. With no core for the migration thread
//!   nothing hides a copy: the budget is zero, every rotation is
//!   dropped, and what is left is a static placement — the global
//!   plan's job.
//!
//! The rotating schedule replaces the global plan only if its modelled
//! value beats the global plan's by more than [`MIN_GAIN`], window 0
//! counted at half on both sides (the plan is released part-way through
//! it). Ties go to the global plan: it moves every byte once.
//!
//! Pure and clock-free: the caller observes the machine (worker count,
//! whether the migration thread has a core) and passes what it saw.
//! Two tiers only — at more, the global multiple-choice plan stands.

/// A rotating schedule must beat the global plan's modelled value by
/// more than this share to replace it.
pub const MIN_GAIN: f64 = 0.03;

/// Weight of window 0's value: the plan is released mid-window, once
/// every task class has been profiled.
const WINDOW0_WEIGHT: f64 = 0.5;

/// One direction of the copy channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyRate {
    /// Modelled bandwidth, GB/s (== bytes per ns).
    pub gbps: f64,
    /// Start-up latency per copy, ns.
    pub latency_ns: f64,
}

impl CopyRate {
    /// Modelled duration of one copy of `bytes`, ns.
    pub fn ns(&self, bytes: u64) -> f64 {
        self.latency_ns + bytes as f64 / self.gbps
    }
}

/// What the planner decides from.
#[derive(Debug, Clone, Copy)]
pub struct RotationInput<'a> {
    /// Size of object `i`, bytes.
    pub sizes: &'a [u64],
    /// `touches[i]`: one `(window, ns saved by fast-tier residence in
    /// that window)` per window in which a task declares object `i`,
    /// windows ascending.
    pub touches: &'a [Vec<(u32, f64)>],
    /// Modelled memory time of each window with every object on the
    /// slow tier, ns; its length is the window count.
    pub spill_window_ns: &'a [f64],
    /// Fast-tier capacity, bytes.
    pub capacity: u64,
    /// The global plan: `global[i]` — object `i` is promoted for the run.
    pub global: &'a [bool],
    /// Slow → fast copies.
    pub promote: CopyRate,
    /// Fast → slow copies.
    pub evict: CopyRate,
    /// Worker threads sharing each window's work.
    pub workers: usize,
    /// Whether copies run beside the workers (the migration thread has
    /// a core of its own) rather than instead of them.
    pub overlap: bool,
}

/// The moves issued when one window opens, evictions first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowMoves {
    /// Objects leaving the fast tier, in issue order.
    pub evict: Vec<u32>,
    /// Objects entering it, in issue order.
    pub promote: Vec<u32>,
}

/// Modelled ns saved against an all-slow-tier run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanValues {
    /// The global plan, window 0 at half weight.
    pub global_ns: f64,
    /// The plan chosen, window 0 at half weight; equals `global_ns`
    /// when the global plan stands, exceeds it by more than
    /// [`MIN_GAIN`] otherwise.
    pub chosen_ns: f64,
    /// Upper bound of any per-window placement with free migration and
    /// no profiling phase: the fractional knapsack of every window on
    /// its own, every window at full weight.
    pub oracle_ns: f64,
}

/// The planner's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Rotation {
    /// The three modelled values.
    pub values: PlanValues,
    /// `Some` when a rotating schedule beat the global plan.
    pub schedule: Option<Schedule>,
}

/// A rotating schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Objects promoted when profiling closes (window 0), ascending.
    pub initial: Vec<u32>,
    /// `windows[u]`: the moves issued when window `u` opens. Entry 0
    /// and the last entry are empty.
    pub windows: Vec<WindowMoves>,
}

/// One residency candidate: `object` holds the fast tier in windows
/// `first..=last`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    object: u32,
    first: u32,
    last: u32,
    /// Discounted value per byte per occupied window.
    density: f64,
}

fn weight(window: u32) -> f64 {
    if window == 0 {
        WINDOW0_WEIGHT
    } else {
        1.0
    }
}

/// Every object's whole-run residency plus one interval per maximal
/// run of consecutive touched windows, best density first.
fn candidates(input: &RotationInput<'_>) -> Vec<Candidate> {
    let last_window = input.spill_window_ns.len() as u32 - 1;
    let mut out = Vec::new();
    for (i, touches) in input.touches.iter().enumerate() {
        let mut push = |first: u32, last: u32, value: f64| {
            let span = (last - first + 1) as f64;
            if value > 0.0 {
                out.push(Candidate {
                    object: i as u32,
                    first,
                    last,
                    density: value / (input.sizes[i].max(1) as f64 * span),
                });
            }
        };
        let discounted = |run: &[(u32, f64)]| run.iter().map(|&(w, v)| weight(w) * v).sum::<f64>();
        push(0, last_window, discounted(touches));
        for run in touches.chunk_by(|a, b| a.0 + 1 == b.0) {
            let (s, e) = (run[0].0, run[run.len() - 1].0);
            // A run spanning the whole run *is* the whole-run residency.
            if (s, e) != (0, last_window) {
                push(s.saturating_sub(1), e, discounted(run));
            }
        }
    }
    // An object's whole-run candidate was pushed before its intervals,
    // so on a tie the stable sort keeps today's residency ahead of them.
    out.sort_by(|a, b| b.density.total_cmp(&a.density));
    out
}

/// Plan the run described by `input`; see the module docs.
pub fn plan_rotation(input: &RotationInput<'_>) -> Rotation {
    let n = input.sizes.len();
    let n_windows = input.spill_window_ns.len();
    let mut by_window: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_windows];
    for (i, touches) in input.touches.iter().enumerate() {
        for &(w, v) in touches {
            by_window[w as usize].push((i as u32, v));
        }
    }
    let saved_in = |u: usize, resident: &[bool]| -> f64 {
        let hits = by_window[u].iter().filter(|(i, _)| resident[*i as usize]);
        hits.map(|(_, v)| v).sum()
    };

    let global_ns = (0..n_windows)
        .map(|u| weight(u as u32) * saved_in(u, input.global))
        .sum();
    let bounds: Vec<f64> = by_window
        .iter()
        .map(|touches| fractional_bound(touches, input.sizes, input.capacity))
        .collect();
    let oracle_ns = bounds.iter().sum();
    let global_stands = Rotation {
        values: PlanValues {
            global_ns,
            chosen_ns: global_ns,
            oracle_ns,
        },
        schedule: None,
    };
    // A rotation needs a window to fetch in and one, after window 0, to
    // use the object in; without overlap no window hides the fetch; and
    // no schedule saves more in a window than that window's bound, so
    // where the bounds leave no room above the global plan (its hot set
    // fills the fast tier in every window) the search is skipped.
    let reachable: f64 = (0u32..).zip(&bounds).map(|(u, b)| weight(u) * b).sum();
    if !input.overlap || n_windows < 3 || reachable <= global_ns * (1.0 + MIN_GAIN) {
        return global_stands;
    }

    // ---- pick intervals ----------------------------------------------
    // `fetch[u]`: the candidates taken whose residency begins in window
    // `u`, best density first (the order they were taken in).
    let mut used = vec![0u64; n_windows];
    let mut whole = vec![false; n];
    let mut rotates = vec![false; n];
    let mut fetch: Vec<Vec<Candidate>> = vec![Vec::new(); n_windows];
    for c in candidates(input) {
        let i = c.object as usize;
        let is_whole = (c.first, c.last as usize) == (0, n_windows - 1);
        if whole[i] || (is_whole && rotates[i]) {
            continue;
        }
        let span = c.first as usize..=c.last as usize;
        if used[span.clone()]
            .iter()
            .any(|u| u + input.sizes[i] > input.capacity)
        {
            continue;
        }
        for u in &mut used[span] {
            *u += input.sizes[i];
        }
        if is_whole {
            whole[i] = true;
        } else {
            rotates[i] = true;
        }
        fetch[c.first as usize].push(c);
    }

    // ---- schedule them under the copy budget --------------------------
    let mut resident = vec![false; n];
    // Last window of the interval object `i` is resident for.
    let mut until = vec![0u32; n];
    let mut free = input.capacity;
    for c in &fetch[0] {
        let i = c.object as usize;
        resident[i] = true;
        until[i] = c.last;
        free -= input.sizes[i];
    }
    let mut initial: Vec<u32> = fetch[0].iter().map(|c| c.object).collect();
    initial.sort_unstable();
    let mut windows = vec![WindowMoves::default(); n_windows];
    let mut chosen_ns = weight(0) * saved_in(0, &resident);
    let mut touched = vec![false; n];
    for u in 1..n_windows {
        // Residents touched in `u` are not moved in `u`, so the window's
        // saving is known before its moves are.
        let saved = saved_in(u, &resident);
        chosen_ns += saved;
        let budget = (input.spill_window_ns[u] - saved).max(0.0) / input.workers.max(1) as f64;
        // An object never evicted since its last interval is there
        // already: nothing to copy, and it is not up for eviction.
        for c in fetch[u].iter().filter(|c| resident[c.object as usize]) {
            until[c.object as usize] = c.last;
        }
        if fetch[u].iter().all(|c| resident[c.object as usize]) {
            continue;
        }
        for &(i, _) in &by_window[u] {
            touched[i as usize] = true;
        }
        // Idle residents whose interval has ended, the one touched
        // again soonest first: evictions come off the back.
        let next_touch = |i: u32| {
            let t = &input.touches[i as usize];
            t.get(t.partition_point(|t| t.0 as usize <= u))
                .map_or(u32::MAX, |t| t.0)
        };
        let mut expired: Vec<u32> = (0..n as u32)
            .filter(|&i| resident[i as usize] && !touched[i as usize])
            .filter(|&i| until[i as usize] < u as u32)
            .collect();
        expired.sort_by_key(|&i| next_touch(i));
        let mut spent = 0.0;
        let moves = &mut windows[u];
        for c in &fetch[u] {
            let i = c.object as usize;
            if resident[i] {
                continue;
            }
            let mut cost = input.promote.ns(input.sizes[i]);
            let (mut room, mut evicting) = (free, 0);
            while room < input.sizes[i] && evicting < expired.len() {
                evicting += 1;
                let e = expired[expired.len() - evicting] as usize;
                room += input.sizes[e];
                cost += input.evict.ns(input.sizes[e]);
            }
            if room < input.sizes[i] || spent + cost > budget {
                continue;
            }
            spent += cost;
            for e in expired.drain(expired.len() - evicting..).rev() {
                resident[e as usize] = false;
                moves.evict.push(e);
            }
            resident[i] = true;
            until[i] = c.last;
            free = room - input.sizes[i];
            moves.promote.push(c.object);
        }
        for &(i, _) in &by_window[u] {
            touched[i as usize] = false;
        }
    }

    if chosen_ns > global_ns * (1.0 + MIN_GAIN) {
        Rotation {
            values: PlanValues {
                chosen_ns,
                ..global_stands.values
            },
            schedule: Some(Schedule { initial, windows }),
        }
    } else {
        global_stands
    }
}

/// Value of the fractional knapsack over one window's touches: an upper
/// bound on what any placement can save in that window.
fn fractional_bound(touches: &[(u32, f64)], sizes: &[u64], capacity: u64) -> f64 {
    // (value per byte, bytes, value), densest first.
    let mut order: Vec<(f64, u64, f64)> = touches
        .iter()
        .map(|&(i, v)| (v / sizes[i as usize].max(1) as f64, sizes[i as usize], v))
        .collect();
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
    let (mut room, mut value) = (capacity, 0.0);
    for (_, size, v) in order {
        if size <= room {
            room -= size;
            value += v;
        } else {
            value += v * room as f64 / size as f64;
            break;
        }
    }
    value
}
