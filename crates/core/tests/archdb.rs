//! ArchDB through its public surface: typed rows in, rings that evict
//! per table, and the two exits (JSON, timeline) pinned over real probe
//! records.

use minjie::ArchDb;
use xscore::lifecycle::LifeStamps;
use xscore::{CommitEvent, CommitMem, Lifecycle, SbufferDrainEvent};

fn commit(cycle: u64) -> CommitEvent {
    CommitEvent { pc: 0x8000_0000 + 4 * cycle, cycle, ..Default::default() }
}

fn drain(cycle: u64) -> SbufferDrainEvent {
    SbufferDrainEvent { hart: 1, paddr: 0x8002_0000, size: 8, data: 0x2a, cycle }
}

#[test]
fn a_ring_keeps_its_newest_rows_and_never_evicts_another_tables() {
    let mut db = ArchDb::bounded(16);
    db.sbuffer_drain.push(drain(1));
    for c in 0..100 {
        db.instr_commit.push(commit(c));
        assert_eq!(db.records_inserted(), c + 2, "the insert count is monotonic");
    }
    let cycles: Vec<u64> = db.instr_commit.rows().map(|c| c.cycle).collect();
    assert_eq!(cycles, (84..100).collect::<Vec<_>>(), "newest 16, oldest first");
    assert_eq!((db.sbuffer_drain.len(), db.len()), (1, 17));
    assert!(!db.is_empty() && ArchDb::new().is_empty());
    // Typed rows: a query is an iterator.
    assert_eq!(db.instr_commit.rows().filter(|c| c.pc % 8 == 0).count(), 8);
    // An unbounded database keeps everything.
    let mut all = ArchDb::new();
    (0..100).for_each(|c| all.instr_commit.push(commit(c)));
    assert_eq!((all.len(), all.records_inserted()), (100, 100));
}

#[test]
fn json_export_is_pinned_over_real_probe_records() {
    #[rustfmt::skip]
    let squashed = Lifecycle {
        hart: 0, seq: 3, pc: 0x8000_0010, inst: 0x13, fused: false, mem: true,
        stamps: LifeStamps {
            fetched: 1, decoded: 1, renamed: 2, dispatched: 2, issued: 3, executed: 4, writeback: 4, replays: 0,
        },
        committed: 0, squashed_at: 5, cause: Some(xscore::SquashCause::Mispredict),
    };
    let mut db = ArchDb::new();
    db.sbuffer_drain.push(drain(7));
    db.lifecycle.push(squashed);
    // Tables by name, `cycle` (read off the record: the squash cycle, the
    // drain cycle) then `event`; `instr_commit` never received a row.
    let literal = concat!(
        r#"{"lifecycle":[{"cycle":5,"event":{"cause":"Mispredict","committed":0,"fused":false,"hart":0,"#,
        r#""inst":19,"mem":true,"pc":2147483664,"seq":3,"squashed_at":5,"stamps":{"decoded":1,"#,
        r#""dispatched":2,"executed":4,"fetched":1,"issued":3,"renamed":2,"replays":0,"writeback":4}}}],"#,
        r#""sbuffer_drain":[{"cycle":7,"event":{"cycle":7,"data":42,"hart":1,"paddr":2147614720,"size":8}}]}"#
    );
    assert_eq!(serde_json::to_string(&db).unwrap(), literal);
    // `to_json()` is the same walk, indented.
    let tree = serde_json::parse(literal).unwrap();
    assert_eq!(db.to_json(), serde_json::to_string_pretty(&tree).unwrap());
}

#[test]
fn a_commit_row_shows_its_writeback_and_memory_access() {
    let mut db = ArchDb::new();
    for c in 0..20 {
        db.instr_commit.push(commit(c));
    }
    db.instr_commit.push(CommitEvent {
        wb: Some((false, 5, 0x2a)),
        mem: Some(CommitMem {
            vaddr: 0x8002_0000,
            paddr: 0x8002_0000,
            size: 8,
            is_store: false,
            value: 0x2a,
            mmio: false,
        }),
        ..commit(20)
    });
    let text = db.render_timeline("instr_commit", 18, 25);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    assert_eq!(lines[0], "== instr_commit events, cycles 18..=25 ==");
    assert_eq!(lines[1], "        18 | hart=0 pc=0x80000048 op=Illegal");
    assert!(lines[3].ends_with("op=Illegal wb=x5<-0x2a mem=ld8[0x80020000]=0x2a"), "{text}");
    // A window outside the rows, and a table without rows: the header.
    assert_eq!(db.render_timeline("instr_commit", 100, 200).lines().count(), 1);
    assert_eq!(db.render_timeline("lifecycle", 0, 200).lines().count(), 1);
    // A probe without a line of its own renders as its JSON.
    db.sbuffer_drain.push(drain(19));
    let drains = db.render_timeline("sbuffer_drain", 0, 200);
    let row = r#"        19 | {"cycle":19,"data":42,"hart":1,"paddr":2147614720,"size":8}"#;
    assert_eq!(drains.lines().last(), Some(row), "{drains}");
    assert!(db.render_timeline("nope", 0, 1).contains("no table"));
}
