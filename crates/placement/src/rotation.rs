//! Per-window local search against the global plan, for a runtime that
//! migrates while tasks run.
//!
//! The global plan (one multiple-choice knapsack over whole-run values)
//! keeps an object in the fast tier for the whole run or not at all. An
//! object touched in one window out of four then either wastes its
//! bytes three windows in four or is never promoted. This planner lets
//! such an object hold the fast tier for an *interval* instead: a
//! maximal run of consecutive windows `[s..e]` in which tasks touch it,
//! plus, with the early [`Lead`], the window `s − 1` in which it is
//! fetched. Candidates — every object's whole-run residency and each of
//! its touch runs — are taken in one greedy pass by value per byte per
//! occupied window, under the fast tier's capacity in every window.
//!
//! A fetch has two possible leads, and each gives one schedule:
//!
//! * **Early** — at the barrier *before* the first touched window: the
//!   copy runs while the object is idle, and the object holds the fast
//!   tier for a window before it is used.
//! * **Late** — at the barrier *of* the first touched window: the object
//!   occupies `[s..e]` only, and the runtime starts that window's tasks
//!   on it after every other task of the window has been taken, so the
//!   copy lands while those others run.
//!
//! Each schedule is built window by window under four rules that make
//! it safe to execute and cheap to hide:
//!
//! * **Only idle objects leave.** An eviction at window `u ≥ 1` names an
//!   object no task of `u` touches, whose interval has ended. An early
//!   fetch names an idle object too; a late fetch names an object of
//!   `u` — its tasks wait for the window's others, and a task that still
//!   meets the copy waits on the pin.
//! * **Evictions only make room.** An object whose interval has ended
//!   stays where it is until a fetch of the same window needs its
//!   space; a window's evictions precede its fetches.
//! * **Holes, not bytes.** The schedule replays the fast tier's real
//!   allocator ([`tahoe_hms::alloc::TierAllocator`], best fit) in the
//!   order the copy engine will: window 0's promotions by descending
//!   whole-run value per byte, then each window's evictions followed by
//!   its fetches. A fetch evicts idle expired objects until the
//!   allocator finds it a contiguous hole, or is dropped.
//! * **Copies fit the time that hides them.** A window's moves, priced
//!   at the channel's direction-aware rates, must fit into the time the
//!   window hides them in, split over the workers. An early fetch has
//!   the window's modelled duration under the placement in force. A
//!   late fetch has only the slow-tier delay of the window's *other*
//!   tasks — its own tasks wait for them, and the native part of their
//!   time runs at the host's speed, which the model does not know.
//!   Fetches that do not fit are dropped, lowest density first, and a
//!   dropped fetch held space in the pick that another candidate could
//!   have used: the intervals are picked again without it, until every
//!   fetch picked is scheduled. With no core for the migration thread
//!   nothing hides a copy: no rotation is planned, and what is left is a
//!   static placement — the global plan's job.
//!
//! The schedule with the higher modelled value replaces the global plan
//! only if it beats the global plan's by more than [`MIN_GAIN`], window
//! 0 counted at half on both sides (the plan is released part-way
//! through it). Ties go to the early lead (it defers nothing) and then
//! to the global plan (it moves every byte once).
//!
//! Pure and clock-free: the caller observes the machine (worker count,
//! whether the migration thread has a core) and passes what it saw.
//! Two tiers only — at more, the global multiple-choice plan stands.

use tahoe_hms::alloc::TierAllocator;

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

/// One window in which tasks declare an object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Touch {
    /// The window.
    pub window: u32,
    /// ns saved in it by the object's fast-tier residence: the delay
    /// its accesses take on the slow tier.
    pub saved_ns: f64,
    /// The slow-tier delay of the window's tasks that declare the object
    /// — every access of theirs on the slow tier: what a late fetch of
    /// the object, which holds those tasks back, takes out of the time
    /// that hides the window's copies.
    pub held_ns: f64,
}

/// What the planner decides from.
#[derive(Debug, Clone, Copy)]
pub struct RotationInput<'a> {
    /// Size of object `i`, bytes.
    pub sizes: &'a [u64],
    /// `touches[i]`: one [`Touch`] per window in which a task declares
    /// object `i`, windows ascending.
    pub touches: &'a [Vec<Touch>],
    /// Modelled memory time of each window with every object on the
    /// slow tier, ns; its length is the window count.
    pub spill_window_ns: &'a [f64],
    /// Fast-tier capacity, bytes; the fast tier starts empty.
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

/// When an interval's fetch is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lead {
    /// At the barrier before the interval's first window.
    Early,
    /// At the barrier of the interval's first window.
    Late,
}

impl Lead {
    /// The window whose barrier fetches a touch run starting at `first`.
    fn fetch_window(self, first: u32) -> u32 {
        match self {
            Lead::Early => first.saturating_sub(1),
            Lead::Late => first,
        }
    }
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
    /// How its fetches lead their intervals.
    pub lead: Lead,
    /// Objects promoted when profiling closes (window 0), in issue
    /// order: descending whole-run value per byte, ties by index — the
    /// global plan's promotion order.
    pub initial: Vec<u32>,
    /// `windows[u]`: the moves issued when window `u` opens. Entry 0 is
    /// empty, and so is the last entry of an early schedule.
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

/// The fast tier as the copy engine will drive it: its allocator and
/// where each resident object sits in it.
#[derive(Debug, Clone)]
struct FastTier {
    alloc: TierAllocator,
    addr: Vec<u64>,
}

impl FastTier {
    /// The tier after `evict` leave and then `promote` arrive, one at a
    /// time in that order; `None` if a promotion finds no hole.
    fn after(&self, sizes: &[u64], evict: &[u32], promote: &[u32]) -> Option<FastTier> {
        let mut next = self.clone();
        for &e in evict {
            next.alloc
                .free(next.addr[e as usize])
                .expect("only residents are evicted");
        }
        for &p in promote {
            next.addr[p as usize] = next.alloc.alloc(sizes[p as usize])?;
        }
        Some(next)
    }
}

fn weight(window: u32) -> f64 {
    if window == 0 {
        WINDOW0_WEIGHT
    } else {
        1.0
    }
}

/// `out[u]`: `(object, touch)` for every object touched in window `u`.
fn by_window(input: &RotationInput<'_>) -> Vec<Vec<(u32, Touch)>> {
    let mut out = vec![Vec::new(); input.spill_window_ns.len()];
    for (i, touches) in input.touches.iter().enumerate() {
        for &t in touches {
            out[t.window as usize].push((i as u32, t));
        }
    }
    out
}

/// Ns saved in window `u` of `by_window` by the objects `resident` there.
fn saved_in(by_window: &[Vec<(u32, Touch)>], u: usize, resident: &[bool]) -> f64 {
    let hits = by_window[u].iter().filter(|(i, _)| resident[*i as usize]);
    hits.map(|(_, t)| t.saved_ns).sum()
}

/// Every object's whole-run residency plus one interval per maximal
/// run of consecutive touched windows, fetched per `lead`, best density
/// first.
fn candidates(input: &RotationInput<'_>, lead: Lead) -> Vec<Candidate> {
    let last_window = input.spill_window_ns.len() as u32 - 1;
    let mut out = Vec::new();
    for (i, touches) in input.touches.iter().enumerate() {
        let mut push = |first: u32, last: u32, value: f64| {
            let span = (last - first + 1) as f64;
            if value > 0.0 && input.sizes[i] > 0 {
                out.push(Candidate {
                    object: i as u32,
                    first,
                    last,
                    density: value / (input.sizes[i] as f64 * span),
                });
            }
        };
        let discounted = |run: &[Touch]| run.iter().map(|t| weight(t.window) * t.saved_ns).sum();
        push(0, last_window, discounted(touches));
        for run in touches.chunk_by(|a, b| a.window + 1 == b.window) {
            let (s, e) = (run[0].window, run[run.len() - 1].window);
            // A run spanning the whole run *is* the whole-run residency.
            if (s, e) != (0, last_window) {
                push(lead.fetch_window(s), e, discounted(run));
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
    let n_windows = input.spill_window_ns.len();
    let by_window = by_window(input);
    let global_ns = (0..n_windows)
        .map(|u| weight(u as u32) * saved_in(&by_window, u, input.global))
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
    // A rotation needs a window after window 0 to use a fetched object
    // in, and one more to make the early lead differ from a static
    // placement; without overlap no window hides a fetch; and no
    // schedule saves more in a window than that window's bound, so
    // where the bounds leave no room above the global plan (its hot set
    // fills the fast tier in every window) the search is skipped.
    let reachable: f64 = (0u32..).zip(&bounds).map(|(u, b)| weight(u) * b).sum();
    if !input.overlap || n_windows < 3 || reachable <= global_ns * (1.0 + MIN_GAIN) {
        return global_stands;
    }
    let early = follow(input, Lead::Early);
    let late = follow(input, Lead::Late);
    let (chosen_ns, schedule) = if late.0 > early.0 { late } else { early };
    if chosen_ns > global_ns * (1.0 + MIN_GAIN) {
        Rotation {
            values: PlanValues {
                chosen_ns,
                ..global_stands.values
            },
            schedule: Some(schedule),
        }
    } else {
        global_stands
    }
}

/// The rotating schedule with fetches led by `lead`, and its modelled
/// value (window 0 at half weight). [`plan_rotation`] builds both and
/// holds the better against the global plan; `input.overlap` is its
/// business, not this function's.
///
/// Intervals are picked, then scheduled. A fetch the schedule drops —
/// no time to hide it, or no hole — held space in the pick that another
/// candidate could have used, so the intervals are picked again without
/// it, until every fetch picked is scheduled.
pub fn follow(input: &RotationInput<'_>, lead: Lead) -> (f64, Schedule) {
    let by_window = by_window(input);
    let candidates = candidates(input, lead);
    let mut banned = vec![false; candidates.len()];
    loop {
        let fetch = pick(input, &candidates, &banned);
        match schedule(input, &by_window, lead, &candidates, &fetch) {
            Ok(followed) => return followed,
            Err(dropped) => dropped.into_iter().for_each(|k| banned[k] = true),
        }
    }
}

/// Take the candidates not `banned`, best density first, wherever they
/// fit the fast tier's capacity in every window they occupy. `out[u]`:
/// the taken candidates (indices) whose residency begins in window `u`,
/// in the order taken.
fn pick(input: &RotationInput<'_>, candidates: &[Candidate], banned: &[bool]) -> Vec<Vec<usize>> {
    let n = input.sizes.len();
    let n_windows = input.spill_window_ns.len();
    let mut used = vec![0u64; n_windows];
    let mut whole = vec![false; n];
    let mut rotates = vec![false; n];
    let mut fetch = vec![Vec::new(); n_windows];
    for (k, c) in candidates.iter().enumerate().filter(|(k, _)| !banned[*k]) {
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
        fetch[c.first as usize].push(k);
    }
    fetch
}

/// Schedule the picked intervals `fetch` (see [`pick`]) window by
/// window; `Err` names the candidates whose fetch had to be dropped.
fn schedule(
    input: &RotationInput<'_>,
    by_window: &[Vec<(u32, Touch)>],
    lead: Lead,
    candidates: &[Candidate],
    fetch: &[Vec<usize>],
) -> Result<(f64, Schedule), Vec<usize>> {
    let n = input.sizes.len();
    let n_windows = input.spill_window_ns.len();
    let picked = |u: usize| fetch[u].iter().map(|&k| (k, candidates[k]));
    let mut dropped = Vec::new();
    let mut resident = vec![false; n];
    // Last window of the interval object `i` is resident for.
    let mut until = vec![0u32; n];
    let mut fast = FastTier {
        alloc: TierAllocator::new(input.capacity),
        addr: vec![0; n],
    };
    // Window 0: the release's promotions in the global plan's order, by
    // whole-run value per byte. Onto an empty tier, in any order, each
    // finds a hole; the order decides where.
    let mut initial: Vec<(f64, u32)> = picked(0)
        .map(|(_, c)| {
            let value: f64 = input.touches[c.object as usize]
                .iter()
                .map(|t| t.saved_ns)
                .sum();
            (
                value / input.sizes[c.object as usize].max(1) as f64,
                c.object,
            )
        })
        .collect();
    initial.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let initial: Vec<u32> = initial.into_iter().map(|(_, i)| i).collect();
    if let Some(placed) = fast.after(input.sizes, &[], &initial) {
        fast = placed;
    }
    for (_, c) in picked(0) {
        resident[c.object as usize] = true;
        until[c.object as usize] = c.last;
    }
    let mut windows = vec![WindowMoves::default(); n_windows];
    let mut chosen_ns = weight(0) * saved_in(by_window, 0, &resident);
    let mut touched: Vec<Option<Touch>> = vec![None; n];
    for u in 1..n_windows {
        // An object never evicted since its last interval is there
        // already: nothing to copy, and it is not up for eviction.
        for (_, c) in picked(u).filter(|(_, c)| resident[c.object as usize]) {
            until[c.object as usize] = c.last;
        }
        if picked(u).all(|(_, c)| resident[c.object as usize]) {
            chosen_ns += saved_in(by_window, u, &resident);
            continue;
        }
        for &(i, t) in &by_window[u] {
            touched[i as usize] = Some(t);
        }
        // What hides the window's copies, under the placement in force.
        // An early fetch has the whole window: its modelled duration. A
        // late one must land before its tasks start, once the others
        // have run, and of their time only the slow-tier delay is the
        // model's to promise — the native part of an access runs at
        // whatever speed this host's DRAM and caches give it.
        let hiding = match lead {
            Lead::Early => input.spill_window_ns[u] - saved_in(by_window, u, &resident),
            Lead::Late => {
                let slow = by_window[u].iter().filter(|(i, _)| !resident[*i as usize]);
                slow.map(|(_, t)| t.saved_ns).sum()
            }
        };
        // Idle residents whose interval has ended, the one touched
        // again soonest first: evictions come off the back.
        let next_touch = |i: u32| {
            let t = &input.touches[i as usize];
            t.get(t.partition_point(|t| t.window as usize <= u))
                .map_or(u32::MAX, |t| t.window)
        };
        let mut expired: Vec<u32> = (0..n as u32)
            .filter(|&i| resident[i as usize] && touched[i as usize].is_none())
            .filter(|&i| until[i as usize] < u as u32)
            .collect();
        expired.sort_by_key(|&i| next_touch(i));
        // The window's moves replay from the tier as it opens, so a
        // fetch is judged in the order the copy engine will issue it.
        let opening = fast.clone();
        let (mut spent, mut held_back) = (0.0, 0.0);
        let moves = &mut windows[u];
        for (k, c) in picked(u) {
            let i = c.object as usize;
            if resident[i] {
                continue;
            }
            let size = input.sizes[i];
            // Fewest evictions whose bytes could make room, then more
            // until the allocator finds the fetch a hole.
            let mut evicting = 0;
            let mut room = fast.alloc.free_bytes();
            while room < size && evicting < expired.len() {
                evicting += 1;
                room += input.sizes[expired[expired.len() - evicting] as usize];
            }
            // With no eviction of its own the fetch just follows the
            // window's moves so far; an eviction is issued ahead of every
            // fetch of the window, so then the window replays.
            let attempt = |evicting: usize| {
                if evicting == 0 {
                    return fast.after(input.sizes, &[], &[c.object]);
                }
                let extra = expired[expired.len() - evicting..].iter().rev();
                let evict: Vec<u32> = moves.evict.iter().chain(extra).copied().collect();
                let promote: Vec<u32> = moves.promote.iter().copied().chain([c.object]).collect();
                opening.after(input.sizes, &evict, &promote)
            };
            let mut placed = None;
            while placed.is_none() && room >= size && evicting <= expired.len() {
                placed = attempt(evicting);
                if placed.is_none() {
                    evicting += 1;
                }
            }
            let Some(placed) = placed else {
                dropped.push(k);
                continue;
            };
            let evicted = &expired[expired.len() - evicting..];
            let cost = input.promote.ns(size)
                + evicted
                    .iter()
                    .map(|&e| input.evict.ns(input.sizes[e as usize]))
                    .sum::<f64>();
            // A late fetch holds its tasks back: they hide nothing.
            let holds = touched[i].map_or(0.0, |t| t.held_ns);
            let budget = (hiding - held_back - holds).max(0.0) / input.workers.max(1) as f64;
            if spent + cost > budget {
                dropped.push(k);
                continue;
            }
            spent += cost;
            held_back += holds;
            for e in expired.drain(expired.len() - evicting..).rev() {
                resident[e as usize] = false;
                moves.evict.push(e);
            }
            resident[i] = true;
            until[i] = c.last;
            moves.promote.push(c.object);
            fast = placed;
        }
        for &(i, _) in &by_window[u] {
            touched[i as usize] = None;
        }
        chosen_ns += saved_in(by_window, u, &resident);
    }
    if !dropped.is_empty() {
        return Err(dropped);
    }
    let schedule = Schedule {
        lead,
        initial,
        windows,
    };
    Ok((chosen_ns, schedule))
}

/// Value of the fractional knapsack over one window's touches: an upper
/// bound on what any placement can save in that window.
fn fractional_bound(touches: &[(u32, Touch)], sizes: &[u64], capacity: u64) -> f64 {
    // (value per byte, bytes, value), densest first.
    let mut order: Vec<(f64, u64, f64)> = touches
        .iter()
        .map(|&(i, t)| {
            let size = sizes[i as usize];
            (t.saved_ns / size.max(1) as f64, size, t.saved_ns)
        })
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
