//! Exposed-stall blame attribution over the merged flight-recorder
//! stream.
//!
//! The migration engine emits an ([`Event::MigrationIssued`],
//! [`Event::MigrationCompleted`]) pair per committed copy: the issue
//! event carries the copy interval `[start, finish]` and the tiers, the
//! completion carries the overlapped portion. The planner stamps one
//! [`Event::PlacementDecision`] per object it scored. Workers stamp
//! gate-wait time at the head of each [`Event::WorkerTask`] span. This
//! module joins the three into a per-(object, destination-tier) blame
//! table:
//!
//! * `overlapped_ns` / `exposed_ns` — the copy time hidden behind
//!   compute vs paid as stalls, summed per object. Aggregated across
//!   the table these reproduce `MigrationStats::pct_overlap` exactly
//!   (same records, same arithmetic) — the reconciliation the blame
//!   bench gates to within 1%.
//! * `gate_wait_ns` — every worker gate-wait nanosecond, attributed to
//!   whichever copy was in flight during the wait (walked
//!   chronologically so overlapping copies split the interval rather
//!   than double-count it). Wait time no copy overlaps lands in
//!   [`BlameTable::unattributed_wait_ns`] — nothing is dropped.
//! * `chosen` / `predicted_benefit_ns` — the placement decision the
//!   knapsack made for the object, for the what-if sign check.

use std::collections::BTreeMap;

use crate::event::{Event, Ns, Tier};

/// Blame accumulated against one (object, destination tier) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameEntry {
    /// Object id (HMS id; identical to the app index in per-run heaps).
    pub object: u32,
    /// Destination tier of the blamed copies.
    pub tier: Tier,
    /// Committed migrations of this object into this tier.
    pub migrations: u64,
    /// Bytes those migrations moved.
    pub bytes: u64,
    /// Copy time hidden behind compute.
    pub overlapped_ns: Ns,
    /// Copy time paid as exposed stalls.
    pub exposed_ns: Ns,
    /// Worker gate-wait ns attributed to this object's in-flight copies.
    pub gate_wait_ns: Ns,
    /// Whether the knapsack chose the object for DRAM.
    pub chosen: bool,
    /// The knapsack's predicted benefit for the object.
    pub predicted_benefit_ns: Ns,
}

/// Whole-run blame table: entries sorted by exposed time (worst first).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlameTable {
    /// Entries, highest `exposed_ns` first (object id breaks ties).
    pub entries: Vec<BlameEntry>,
    /// Total overlapped copy ns across all entries.
    pub overlapped_ns: Ns,
    /// Total exposed copy ns across all entries.
    pub exposed_ns: Ns,
    /// Gate-wait ns attributed to some in-flight copy.
    pub attributed_wait_ns: Ns,
    /// Gate-wait ns no copy overlapped.
    pub unattributed_wait_ns: Ns,
}

impl BlameTable {
    /// Aggregate percent of copy time hidden behind compute — the same
    /// quantity as `MigrationStats::pct_overlap` (100 when no copies).
    pub fn pct_overlap(&self) -> f64 {
        let total = self.overlapped_ns + self.exposed_ns;
        if total <= 0.0 {
            100.0
        } else {
            100.0 * self.overlapped_ns / total
        }
    }

    /// The `k` worst entries by exposed stall time.
    pub fn top_k(&self, k: usize) -> &[BlameEntry] {
        &self.entries[..k.min(self.entries.len())]
    }

    /// Build the table from a merged event stream.
    pub fn from_events(events: &[Event]) -> BlameTable {
        // Pass 1: per-object FIFO of issued copies, and the placement
        // decision per object. Completions pair with issues in emission
        // order (the engine commits one copy at a time per object).
        struct Issue {
            bytes: u64,
            to: Tier,
            start: Ns,
            finish: Ns,
        }
        let mut issued: BTreeMap<u32, std::collections::VecDeque<Issue>> = BTreeMap::new();
        let mut decisions: BTreeMap<u32, (bool, Ns)> = BTreeMap::new();
        for e in events {
            match *e {
                Event::MigrationIssued {
                    object,
                    bytes,
                    to,
                    start,
                    finish,
                    ..
                } => issued.entry(object).or_default().push_back(Issue {
                    bytes,
                    to,
                    start,
                    finish,
                }),
                Event::PlacementDecision {
                    object,
                    predicted_benefit_ns,
                    chosen,
                    ..
                } => {
                    decisions.insert(object, (chosen, predicted_benefit_ns));
                }
                _ => {}
            }
        }

        // Pass 2: fold completions into per-(object, tier) entries and
        // collect the copy intervals for gate-wait attribution.
        let mut table: BTreeMap<(u32, Tier), BlameEntry> = BTreeMap::new();
        let mut intervals: Vec<(Ns, Ns, u32, Tier)> = Vec::new(); // (start, finish, object, tier)
        fn entry_for<'a>(
            table: &'a mut BTreeMap<(u32, Tier), BlameEntry>,
            decisions: &BTreeMap<u32, (bool, Ns)>,
            object: u32,
            to: Tier,
        ) -> &'a mut BlameEntry {
            let (chosen, predicted) = decisions.get(&object).copied().unwrap_or((false, 0.0));
            table.entry((object, to)).or_insert_with(|| BlameEntry {
                object,
                tier: to,
                migrations: 0,
                bytes: 0,
                overlapped_ns: 0.0,
                exposed_ns: 0.0,
                gate_wait_ns: 0.0,
                chosen,
                predicted_benefit_ns: predicted,
            })
        }
        let mut overlapped_total = 0.0;
        let mut exposed_total = 0.0;
        for e in events {
            if let Event::MigrationCompleted {
                object, overlap_ns, ..
            } = *e
            {
                let Some(issue) = issued.get_mut(&object).and_then(|q| q.pop_front()) else {
                    continue; // truncated stream: completion without its issue
                };
                let dur = (issue.finish - issue.start).max(0.0);
                let overlapped = overlap_ns.clamp(0.0, dur);
                let exposed = dur - overlapped;
                intervals.push((issue.start, issue.finish, object, issue.to));
                let entry = entry_for(&mut table, &decisions, object, issue.to);
                entry.migrations += 1;
                entry.bytes += issue.bytes;
                entry.overlapped_ns += overlapped;
                entry.exposed_ns += exposed;
                overlapped_total += overlapped;
                exposed_total += exposed;
            }
        }
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));

        // Pass 3: split every gate-wait interval across the copies in
        // flight during it; the remainder is unattributed.
        let mut attributed = 0.0;
        let mut unattributed = 0.0;
        for e in events {
            let Event::WorkerTask {
                t,
                wall_ns,
                gate_wait_ns,
                ..
            } = *e
            else {
                continue;
            };
            let wall = wall_ns.max(0.0);
            let w_start = t - wall;
            let w_end = w_start + gate_wait_ns.clamp(0.0, wall);
            let mut cursor = w_start;
            for &(m_start, m_finish, object, tier) in &intervals {
                if cursor >= w_end {
                    break;
                }
                if m_finish <= cursor || m_start >= w_end {
                    continue;
                }
                if m_start > cursor {
                    unattributed += m_start - cursor;
                    cursor = m_start;
                }
                let piece = m_finish.min(w_end) - cursor;
                if piece > 0.0 {
                    entry_for(&mut table, &decisions, object, tier).gate_wait_ns += piece;
                    attributed += piece;
                    cursor += piece;
                }
            }
            if w_end > cursor {
                unattributed += w_end - cursor;
            }
        }

        let mut entries: Vec<BlameEntry> = table.into_values().collect();
        entries.sort_by(|a, b| {
            b.exposed_ns
                .total_cmp(&a.exposed_ns)
                .then(a.object.cmp(&b.object))
        });
        BlameTable {
            entries,
            overlapped_ns: overlapped_total,
            exposed_ns: exposed_total,
            attributed_wait_ns: attributed,
            unattributed_wait_ns: unattributed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issued(object: u32, bytes: u64, start: f64, finish: f64) -> Event {
        Event::MigrationIssued {
            t: start,
            object,
            bytes,
            from: Tier::Nvm,
            to: Tier::Dram,
            start,
            finish,
            queue_depth: 0,
        }
    }

    fn completed(object: u32, bytes: u64, finish: f64, overlap: f64) -> Event {
        Event::MigrationCompleted {
            t: finish,
            object,
            bytes,
            overlap_ns: overlap,
        }
    }

    fn task(t_finish: f64, wall: f64, gate: f64) -> Event {
        Event::WorkerTask {
            t: t_finish,
            tenant: 0,
            worker: 0,
            task: 0,
            window: 0,
            wall_ns: wall,
            gate_wait_ns: gate,
        }
    }

    #[test]
    fn empty_stream_reports_full_overlap() {
        let t = BlameTable::from_events(&[]);
        assert!(t.entries.is_empty());
        assert_eq!(t.pct_overlap(), 100.0);
    }

    #[test]
    fn completion_splits_into_overlapped_and_exposed() {
        let events = vec![
            issued(3, 4096, 100.0, 200.0),
            completed(3, 4096, 200.0, 60.0),
        ];
        let t = BlameTable::from_events(&events);
        assert_eq!(t.entries.len(), 1);
        let e = &t.entries[0];
        assert_eq!(e.object, 3);
        assert_eq!(e.tier, Tier::Dram);
        assert_eq!(e.migrations, 1);
        assert_eq!(e.bytes, 4096);
        assert!((e.overlapped_ns - 60.0).abs() < 1e-9);
        assert!((e.exposed_ns - 40.0).abs() < 1e-9);
        assert!((t.pct_overlap() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn a_middle_tier_destination_is_its_own_cell() {
        // Object 4 climbs spill → middle → fastest: two copies, two
        // destinations, two cells.
        let mut up = issued(4, 64, 0.0, 10.0);
        if let Event::MigrationIssued { to, .. } = &mut up {
            *to = Tier::Mid(1);
        }
        let events = vec![
            up,
            completed(4, 64, 10.0, 10.0),
            issued(4, 64, 20.0, 30.0),
            completed(4, 64, 30.0, 4.0),
        ];
        let t = BlameTable::from_events(&events);
        let cells: Vec<(Tier, u64)> = t.entries.iter().map(|e| (e.tier, e.migrations)).collect();
        assert_eq!(cells, vec![(Tier::Dram, 1), (Tier::Mid(1), 1)]);
    }

    #[test]
    fn every_gate_wait_ns_lands_somewhere() {
        // Wait [100, 180]; object 5's copy covers [120, 150]: 30ns
        // attributed, 50ns (the gap before 120 plus the tail after 150)
        // unattributed.
        let events = vec![
            issued(5, 1024, 120.0, 150.0),
            completed(5, 1024, 150.0, 30.0),
            task(300.0, 200.0, 80.0),
        ];
        let t = BlameTable::from_events(&events);
        assert!((t.attributed_wait_ns - 30.0).abs() < 1e-9);
        assert!((t.unattributed_wait_ns - 50.0).abs() < 1e-9);
        assert!((t.entries[0].gate_wait_ns - 30.0).abs() < 1e-9);
        assert!(
            (t.attributed_wait_ns + t.unattributed_wait_ns - 80.0).abs() < 1e-9,
            "wait time is conserved"
        );
    }

    #[test]
    fn overlapping_copies_split_the_wait_without_double_counting() {
        // Wait [0, 100]; object 1 covers [0, 60], object 2 covers
        // [40, 100]. The chronological walk gives object 1 the first
        // 60ns and object 2 the remaining 40ns.
        let events = vec![
            issued(1, 10, 0.0, 60.0),
            issued(2, 10, 40.0, 100.0),
            completed(1, 10, 60.0, 0.0),
            completed(2, 10, 100.0, 0.0),
            task(200.0, 200.0, 100.0),
        ];
        let t = BlameTable::from_events(&events);
        assert!((t.attributed_wait_ns - 100.0).abs() < 1e-9);
        assert_eq!(t.unattributed_wait_ns, 0.0);
        let by_obj: BTreeMap<u32, f64> = t
            .entries
            .iter()
            .map(|e| (e.object, e.gate_wait_ns))
            .collect();
        assert!((by_obj[&1] - 60.0).abs() < 1e-9);
        assert!((by_obj[&2] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn placement_decisions_annotate_entries() {
        let events = vec![
            Event::PlacementDecision {
                t: 0.0,
                object: 9,
                bytes: 64,
                predicted_benefit_ns: 123.0,
                chosen: true,
            },
            issued(9, 64, 10.0, 20.0),
            completed(9, 64, 20.0, 10.0),
        ];
        let t = BlameTable::from_events(&events);
        assert!(t.entries[0].chosen);
        assert_eq!(t.entries[0].predicted_benefit_ns, 123.0);
    }

    #[test]
    fn entries_sort_worst_exposed_first() {
        let events = vec![
            issued(1, 10, 0.0, 10.0),
            issued(2, 10, 0.0, 100.0),
            completed(1, 10, 10.0, 10.0),
            completed(2, 10, 100.0, 0.0),
        ];
        let t = BlameTable::from_events(&events);
        assert_eq!(t.entries[0].object, 2);
        assert_eq!(t.top_k(1).len(), 1);
        assert_eq!(t.top_k(5).len(), 2);
    }
}
