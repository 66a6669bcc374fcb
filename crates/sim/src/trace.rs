//! Execution traces: what happened when, for tests, debugging and the
//! schedule visualizations (paper Figs. 6, 8 and 11).

use crate::op::OpLabel;
use dynapipe_model::Micros;
use serde::{Deserialize, Serialize};

/// What a trace interval represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Forward compute of a micro-batch on a device.
    Forward,
    /// Backward compute of a micro-batch on a device.
    Backward,
    /// A point-to-point transfer between two devices.
    Transfer,
    /// Allocator stall charged to a compute op.
    AllocStall,
}

/// One interval in the execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Executing device (for transfers, the sender).
    pub device: usize,
    /// Peer device for transfers; `usize::MAX` otherwise.
    pub peer: usize,
    /// Kind of interval.
    pub kind: TraceKind,
    /// Label (micro-batch, stage, direction).
    pub label: OpLabel,
    /// Start time (µs).
    pub start: Micros,
    /// End time (µs).
    pub end: Micros,
}

impl TraceEvent {
    /// Interval length.
    pub fn duration(&self) -> Micros {
        self.end - self.start
    }
}

/// Render a compact ASCII Gantt chart of compute events, one row per
/// device — a textual analogue of the paper's pipeline figures.
///
/// Each character cell covers `makespan / width` µs and is filled with the
/// micro-batch index (mod 10) of the op occupying it; backward work is shown
/// as letters (`a` = micro-batch 0). Idle cells are `.`.
pub fn render_gantt(events: &[TraceEvent], num_devices: usize, width: usize) -> String {
    let makespan = events.iter().map(|e| e.end).fold(0.0, f64::max);
    if makespan <= 0.0 || width == 0 {
        return String::new();
    }
    let cell = makespan / width as f64;
    let mut rows = vec![vec!['.'; width]; num_devices];
    for e in events {
        if e.kind != TraceKind::Forward && e.kind != TraceKind::Backward {
            continue;
        }
        let mb = (e.label.micro_batch % 10) as u8;
        let ch = if e.kind == TraceKind::Forward {
            (b'0' + mb) as char
        } else {
            (b'a' + mb) as char
        };
        let from = (e.start / cell) as usize;
        let to = ((e.end / cell).ceil() as usize).min(width);
        for c in rows[e.device].iter_mut().take(to).skip(from) {
            *c = ch;
        }
    }
    rows.into_iter()
        .enumerate()
        .map(|(d, row)| format!("dev{d}: {}", row.into_iter().collect::<String>()))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(device: usize, kind: TraceKind, mb: u32, start: Micros, end: Micros) -> TraceEvent {
        TraceEvent {
            device,
            peer: usize::MAX,
            kind,
            label: OpLabel::new(mb, device as u32, kind == TraceKind::Backward),
            start,
            end,
        }
    }

    #[test]
    fn gantt_renders_forward_and_backward_distinctly() {
        let events = vec![
            ev(0, TraceKind::Forward, 0, 0.0, 50.0),
            ev(0, TraceKind::Backward, 0, 50.0, 100.0),
            ev(1, TraceKind::Forward, 1, 25.0, 75.0),
        ];
        let g = render_gantt(&events, 2, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('0'));
        assert!(lines[0].contains('a'));
        assert!(lines[1].contains('1'));
    }

    #[test]
    fn gantt_empty_for_no_events() {
        assert_eq!(render_gantt(&[], 2, 10), "");
    }

    #[test]
    fn duration_is_end_minus_start() {
        assert_eq!(ev(0, TraceKind::Forward, 0, 10.0, 35.0).duration(), 25.0);
    }
}
