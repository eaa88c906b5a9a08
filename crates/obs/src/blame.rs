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
//!   knapsack made for the object.
//!
//! [`BlameTable::record_copy`] is the one fold of a committed copy: the
//! completion pass here calls it per completion, and the server's live
//! plane per commit, so a batch run and a served tenant answer "which
//! object is to blame" from the same rows.

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

/// Per-(object, destination tier) blame table: the one type a batch
/// run's digest and the server's live plane both fold copies into.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlameTable {
    cells: BTreeMap<(u32, Tier), BlameEntry>,
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

    /// Fold one committed copy of `object` into `tier`: one map update
    /// and the totals.
    pub fn record_copy(
        &mut self,
        object: u32,
        tier: Tier,
        bytes: u64,
        overlapped_ns: Ns,
        exposed_ns: Ns,
    ) {
        let entry = self.cell(object, tier);
        entry.migrations += 1;
        entry.bytes += bytes;
        entry.overlapped_ns += overlapped_ns;
        entry.exposed_ns += exposed_ns;
        self.overlapped_ns += overlapped_ns;
        self.exposed_ns += exposed_ns;
    }

    fn cell(&mut self, object: u32, tier: Tier) -> &mut BlameEntry {
        self.cells
            .entry((object, tier))
            .or_insert_with(|| BlameEntry {
                object,
                tier,
                migrations: 0,
                bytes: 0,
                overlapped_ns: 0.0,
                exposed_ns: 0.0,
                gate_wait_ns: 0.0,
                chosen: false,
                predicted_benefit_ns: 0.0,
            })
    }

    /// Every entry, by object id then tier.
    pub fn entries(&self) -> impl Iterator<Item = &BlameEntry> {
        self.cells.values()
    }

    /// The `k` worst entries by exposed stall time (object id, then
    /// tier, breaks ties — the same order for the same copies).
    pub fn top_k(&self, k: usize) -> Vec<BlameEntry> {
        let mut entries: Vec<BlameEntry> = self.cells.values().cloned().collect();
        entries.sort_by(|a, b| {
            b.exposed_ns
                .total_cmp(&a.exposed_ns)
                .then(a.object.cmp(&b.object))
                .then(a.tier.cmp(&b.tier))
        });
        entries.truncate(k);
        entries
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
        let mut table = BlameTable::default();
        let mut intervals: Vec<(Ns, Ns, u32, Tier)> = Vec::new(); // (start, finish, object, tier)
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
                intervals.push((issue.start, issue.finish, object, issue.to));
                table.record_copy(object, issue.to, issue.bytes, overlapped, dur - overlapped);
            }
        }
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));

        // Pass 3: split every gate-wait interval across the copies in
        // flight during it; the remainder is unattributed.
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
                    table.unattributed_wait_ns += m_start - cursor;
                    cursor = m_start;
                }
                let piece = m_finish.min(w_end) - cursor;
                if piece > 0.0 {
                    table.cell(object, tier).gate_wait_ns += piece;
                    table.attributed_wait_ns += piece;
                    cursor += piece;
                }
            }
            if w_end > cursor {
                table.unattributed_wait_ns += w_end - cursor;
            }
        }

        for entry in table.cells.values_mut() {
            if let Some(&(chosen, predicted)) = decisions.get(&entry.object) {
                entry.chosen = chosen;
                entry.predicted_benefit_ns = predicted;
            }
        }
        table
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
        assert_eq!(t.entries().count(), 0);
        assert_eq!(t.pct_overlap(), 100.0);
    }

    #[test]
    fn completion_splits_into_overlapped_and_exposed() {
        let events = vec![
            issued(3, 4096, 100.0, 200.0),
            completed(3, 4096, 200.0, 60.0),
        ];
        let t = BlameTable::from_events(&events);
        let rows = t.top_k(usize::MAX);
        assert_eq!(rows.len(), 1);
        let e = &rows[0];
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
        let cells: Vec<(Tier, u64)> = t
            .top_k(usize::MAX)
            .iter()
            .map(|e| (e.tier, e.migrations))
            .collect();
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
        assert!((t.top_k(1)[0].gate_wait_ns - 30.0).abs() < 1e-9);
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
        let by_obj: BTreeMap<u32, f64> = t.entries().map(|e| (e.object, e.gate_wait_ns)).collect();
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
        let e = &t.top_k(1)[0];
        assert!(e.chosen);
        assert_eq!(e.predicted_benefit_ns, 123.0);
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
        assert_eq!(t.top_k(1)[0].object, 2);
        assert_eq!(t.top_k(1).len(), 1);
        assert_eq!(t.top_k(5).len(), 2);
    }

    /// The server's path (`record_copy` per commit) and the batch
    /// path (issue / completion events through `from_events`) fold
    /// the same copies into the same table. Objects 1 and 2 tie on
    /// exposed time, and object 1 ties with itself across two tiers.
    #[test]
    fn record_copy_and_the_event_stream_agree() {
        // (object, tier, bytes, start, finish, overlapped)
        let copies = [
            (2, Tier::Dram, 64, 0.0, 100.0, 50.0),
            (1, Tier::Mid(1), 32, 10.0, 60.0, 0.0),
            (3, Tier::Nvm, 16, 20.0, 110.0, 0.0),
            (1, Tier::Dram, 8, 30.0, 90.0, 10.0),
            (3, Tier::Nvm, 16, 120.0, 130.0, 10.0),
        ];
        let mut events = Vec::new();
        let mut served = BlameTable::default();
        for &(object, to, bytes, start, finish, overlapped) in &copies {
            events.push(Event::MigrationIssued {
                t: start,
                object,
                bytes,
                from: Tier::Nvm,
                to,
                start,
                finish,
                queue_depth: 0,
            });
            events.push(completed(object, bytes, finish, overlapped));
            served.record_copy(object, to, bytes, overlapped, finish - start - overlapped);
        }
        let batch = BlameTable::from_events(&events);
        assert_eq!(served, batch);
        let order: Vec<(u32, Tier)> = served.top_k(4).iter().map(|e| (e.object, e.tier)).collect();
        assert_eq!(
            order,
            vec![
                (3, Tier::Nvm),
                (1, Tier::Dram),
                (1, Tier::Mid(1)),
                (2, Tier::Dram)
            ]
        );
        assert_eq!(served.top_k(4), batch.top_k(4));
        assert_eq!((served.overlapped_ns, served.exposed_ns), (70.0, 240.0));
    }

    #[test]
    fn record_copy_accumulates_and_ranks_by_exposed() {
        let mut t = BlameTable::default();
        // Object 1: 50 of [0,100] overlapped, 50 exposed.
        t.record_copy(1, Tier::Dram, 10, 50.0, 50.0);
        // Object 2: 10 overlapped, 90 exposed.
        t.record_copy(2, Tier::Dram, 20, 10.0, 90.0);
        // Object 1 again, demotion direction: its own entry.
        t.record_copy(1, Tier::Nvm, 10, 30.0, 0.0);
        let top = t.top_k(10);
        assert_eq!(top.len(), 3);
        assert_eq!((top[0].object, top[0].tier), (2, Tier::Dram));
        assert!((top[0].exposed_ns - 90.0).abs() < 1e-9);
        assert_eq!(t.entries().map(|e| e.migrations).sum::<u64>(), 3);
        assert_eq!(t.top_k(1).len(), 1);
        // A fully overlapped demotion exposes nothing.
        let demo = top.iter().find(|e| e.tier == Tier::Nvm).unwrap();
        assert_eq!(demo.exposed_ns, 0.0);
    }

    #[test]
    fn record_copy_keeps_a_middle_tier_destination_apart() {
        // Spill → middle, then middle → fastest: one object, two
        // entries, labelled by their destination.
        let mut t = BlameTable::default();
        t.record_copy(7, Tier::Mid(1), 64, 5.0, 5.0);
        t.record_copy(7, Tier::Dram, 64, 5.0, 5.0);
        let tiers: Vec<String> = t.top_k(10).iter().map(|e| e.tier.to_string()).collect();
        assert_eq!(tiers, vec!["dram", "tier1"]);
    }
}
