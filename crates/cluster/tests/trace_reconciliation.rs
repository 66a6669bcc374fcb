//! The trace ↔ counter reconciliation suite: on a store-backed
//! **sharded** cluster run with live churn (a straggler under a
//! re-issue deadline, then an executor-host loss with an in-flight blob
//! restore), the span trace must reconcile **exactly** with every
//! counter ledger the run reports — byte sums as integers, span counts
//! as integers, exposed-µs ledgers bitwise — against [`ClusterReport`],
//! its per-host stats and its [`ShardStats`], not just the embedded
//! `TraceMeta` (which `Trace::reconcile` already audits).
//!
//! The invariant table lives in `TRACING.md`. The ledgers that hold on
//! every cluster cell are checked by the shared harness
//! (`common/mod.rs`); this suite adds the ones that need a clean epoch
//! with live re-issues, on a scenario that exercises every span kind at
//! once: re-issues, duplicate discards, teardown sweeps, restore hops,
//! cross-host fetches and per-host exposure.
//!
//! [`ClusterReport`]: dynapipe_cluster::ClusterReport
//! [`ShardStats`]: dynapipe_cluster::ShardStats

mod common;

use common::Cell;
use dynapipe_cluster::{ChurnEvent, ChurnScript, ClusterConfig, StorePlacement};
use dynapipe_trace::SpanKind::{StoreDiscard, StorePush, TicketComplete, TicketReissue};
use std::time::Duration;

fn reconciliation_cells() -> Vec<Cell> {
    // A straggle on ticket 3 (iteration 0 + the window) long enough for
    // the 60 ms deadline to re-issue, then a shard-owner loss whose
    // in-flight blob must be restored from a surviving peer.
    let churn = ChurnScript::new()
        .at(0, ChurnEvent::Straggle { delay_ms: 1500 })
        .at(2, ChurnEvent::ExecutorLoss { host: 1 });
    let config = ClusterConfig {
        placement: StorePlacement::Sharded,
        churn,
        reissue_deadline: Some(Duration::from_millis(60)),
        ..common::topology(2, 1, 3, 3)
    };
    common::cluster_per_codec("reconciliation", config)
}

#[test]
fn matrix_covers_every_codec_and_keeps_its_cell_count() {
    common::assert_codec_coverage(&reconciliation_cells(), 3);
}

#[test]
fn churned_sharded_run_reconciles_span_for_span() {
    let sc = common::scenario(3, (401, 900), 49152, common::run(5)).clean();
    for out in sc.assert_cells(&reconciliation_cells()) {
        let (stats, trace, label) = (out.cluster(), &out.trace, &out.name);
        let churn = &stats.churn;
        assert!(
            churn.tickets_reissued >= 1,
            "{label}: scenario must re-issue"
        );
        // The straggled ticket is iteration 0 + `plan_ahead`.
        assert!(
            trace.of_kind(TicketReissue).any(|s| s.iteration == 3),
            "{label}: the straggled ticket 3 must re-issue"
        );
        assert!(churn.executor_losses == 1, "{label}");

        // `ShardStats::bytes_pushed` ledgers only the blobs that were
        // taken and executed; a re-issue duplicate crosses the store
        // door and is discarded there, so its bytes appear as a matching
        // StorePush + StoreDiscard pair on the same shard.
        for (s, shard) in stats.shards.iter().enumerate() {
            let on_shard = |kind| trace.of_kind(kind).filter(move |p| p.lane == s as i64);
            let pushed: u64 = on_shard(StorePush).map(|p| p.bytes).sum();
            let door_discarded: u64 = on_shard(StoreDiscard).map(|p| p.bytes).sum();
            let net = pushed - door_discarded;
            assert_eq!(net, shard.bytes_pushed, "{label}: shard {s} pushed bytes");
        }

        // One accepted completion (bytes = 1) per executed iteration;
        // `Trace::reconcile` ledgers the stale ones (bytes = 0).
        let accepted = trace
            .of_kind(TicketComplete)
            .filter(|s| s.bytes == 1)
            .count();
        assert_eq!(accepted, stats.iterations, "{label}: accepted completions");
    }
}
