//! The chunk contract's one checker, [`ChunkContract`], and the
//! [`ContractViolation`]s it reports.

use crate::ids::ThreadId;
use crate::stream::{StreamError, TraceChunk};
use crate::time::Time;
use crate::trace::TraceError;

/// One way a chunk breaks the chunk contract. It converts into the
/// [`StreamError`] a chunk-file reader reports for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractViolation {
    /// A chunk with events whose window does not end past the bound.
    WindowNotAdvancing {
        /// Sequence number of the chunk.
        seq: u64,
        /// The chunk's window end.
        window_end: Time,
        /// The largest window end admitted before it.
        bound: Time,
    },
    /// A span whose thread is not above the previous span's.
    SpanOrder {
        /// Sequence number of the chunk.
        seq: u64,
    },
    /// A span for a thread the stream does not have.
    ThreadOutOfRange {
        /// The thread the span names.
        thread: ThreadId,
    },
    /// After a gap, a span that starts before its thread's admitted events.
    RewindAcrossGap {
        /// Thread of the span.
        thread: ThreadId,
        /// The span's `base_index`.
        base: usize,
        /// Events of the thread admitted so far.
        seen: usize,
    },
    /// A span that does not start where its thread's admitted events end.
    NonContiguousSpan {
        /// Thread of the span.
        thread: ThreadId,
        /// The span's `base_index`.
        base: usize,
        /// Events of the thread admitted so far.
        seen: usize,
    },
    /// An event past its chunk's window end, or on the bound.
    OutsideWindow {
        /// Sequence number of the chunk.
        seq: u64,
        /// Thread of the event.
        thread: ThreadId,
        /// Index of the event in its thread's stream.
        index: usize,
        /// The event's timestamp.
        at: Time,
    },
    /// An event earlier than the bound or than its thread's previous event.
    NonMonotonicTime {
        /// Thread of the event.
        thread: ThreadId,
        /// Index of the event in its thread's stream.
        index: usize,
    },
}

impl std::fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContractViolation::WindowNotAdvancing {
                seq,
                window_end,
                bound,
            } => write!(
                f,
                "chunk {seq} window {window_end} does not advance past {bound}"
            ),
            ContractViolation::SpanOrder { seq } => {
                write!(f, "chunk {seq} spans not in ascending thread order")
            }
            ContractViolation::ThreadOutOfRange { thread } => {
                write!(f, "span for out-of-range thread {thread}")
            }
            ContractViolation::RewindAcrossGap { thread, base, seen } => write!(
                f,
                "span for {thread} rewinds across a gap: base {base} but {seen} events seen"
            ),
            ContractViolation::NonContiguousSpan { thread, base, seen } => write!(
                f,
                "non-contiguous span for {thread}: base {base} but {seen} events seen"
            ),
            ContractViolation::OutsideWindow {
                seq,
                thread,
                index,
                at,
            } => write!(
                f,
                "event {index} of {thread} at {at} is outside chunk {seq}'s window"
            ),
            ContractViolation::NonMonotonicTime { thread, index } => TraceError::NonMonotonicTime {
                thread: *thread,
                event_index: *index,
            }
            .fmt(f),
        }
    }
}

impl From<ContractViolation> for StreamError {
    fn from(violation: ContractViolation) -> Self {
        match violation {
            ContractViolation::NonMonotonicTime { thread, index } => {
                StreamError::Trace(TraceError::NonMonotonicTime {
                    thread,
                    event_index: index,
                })
            }
            other => StreamError::Format(other.to_string()),
        }
    }
}

/// One thread's progress through the stream.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// Events of the thread admitted so far: where its next span starts.
    next_index: usize,
    /// Set by a gap: the next span may start past `next_index`.
    resync: bool,
    /// The latest timestamp admitted for the thread.
    last_time: Option<Time>,
}

/// Checks chunks against the chunk contract, given the *bound* (the largest
/// window end admitted) and each thread's admitted events. In rule order: a
/// chunk with events ends past the bound; spans ascend by thread, name a
/// thread of the stream and start where its admitted events end (after a
/// gap: or later); events lie in `(bound, window_end]`, in time order.
#[derive(Debug, Clone)]
pub struct ChunkContract {
    /// The stream's thread count; `None` admits every thread.
    num_threads: Option<usize>,
    cursors: Vec<Cursor>,
    bound: Option<Time>,
}

impl ChunkContract {
    /// A checker for a stream of `num_threads` threads (`None`: unknown)
    /// that has admitted nothing yet.
    pub fn new(num_threads: Option<usize>) -> Self {
        ChunkContract {
            num_threads,
            cursors: vec![Cursor::default(); num_threads.unwrap_or(0)],
            bound: None,
        }
    }

    /// Checks `chunk` without admitting it.
    ///
    /// # Errors
    ///
    /// The first violation, in rule order.
    pub fn check(&self, chunk: &TraceChunk) -> Result<(), ContractViolation> {
        self.violations(chunk)
            .into_iter()
            .next()
            .map_or(Ok(()), Err)
    }

    /// Every violation of `chunk`, in rule order: at most one per event, and
    /// none from the events of a span whose thread the stream does not have.
    pub fn violations(&self, chunk: &TraceChunk) -> Vec<ContractViolation> {
        let mut found = Vec::new();
        if let Some(bound) = self.bound {
            if chunk.window_end <= bound && chunk.num_events() > 0 {
                found.push(ContractViolation::WindowNotAdvancing {
                    seq: chunk.seq,
                    window_end: chunk.window_end,
                    bound,
                });
            }
        }
        let mut prev_thread: Option<ThreadId> = None;
        for span in &chunk.spans {
            let thread = span.thread;
            if prev_thread.is_some_and(|p| thread <= p) {
                found.push(ContractViolation::SpanOrder { seq: chunk.seq });
            }
            prev_thread = Some(thread);
            let ti = thread.index();
            if self.num_threads.is_some_and(|n| ti >= n) {
                found.push(ContractViolation::ThreadOutOfRange { thread });
                continue;
            }
            let cursor = self.cursors.get(ti).copied().unwrap_or_default();
            let (base, seen) = (span.base_index, cursor.next_index);
            if cursor.resync && base < seen {
                found.push(ContractViolation::RewindAcrossGap { thread, base, seen });
            } else if !cursor.resync && base != seen {
                found.push(ContractViolation::NonContiguousSpan { thread, base, seen });
            }
            let outside = |index, at| ContractViolation::OutsideWindow {
                seq: chunk.seq,
                thread,
                index,
                at,
            };
            // Past the window, then behind the bound or the thread's
            // previous event, then on the bound: the order fixes which error
            // an event that breaks two rules reports.
            let mut last = self.bound.max(cursor.last_time);
            for (offset, te) in span.events.iter().enumerate() {
                let (index, at) = (base.saturating_add(offset), te.at);
                if at > chunk.window_end {
                    found.push(outside(index, at));
                } else if last.is_some_and(|last| at < last) {
                    found.push(ContractViolation::NonMonotonicTime { thread, index });
                } else if self.bound == Some(at) {
                    found.push(outside(index, at));
                }
                last = last.max(Some(at));
            }
        }
        found
    }

    /// Moves past `chunk`: each thread it carries continues after its span,
    /// and the bound rises to the chunk's window end. A chunk that breaks
    /// the contract, which only a linter admits, moves the state the same
    /// way, except for spans of threads the stream does not have.
    pub fn admit(&mut self, chunk: &TraceChunk) {
        for span in &chunk.spans {
            let ti = span.thread.index();
            if self.num_threads.is_some_and(|n| ti >= n) {
                continue;
            }
            if ti >= self.cursors.len() {
                self.cursors.resize(ti + 1, Cursor::default());
            }
            let cursor = &mut self.cursors[ti];
            cursor.next_index = span.base_index.saturating_add(span.events.len());
            cursor.resync = false;
            let latest = span.events.iter().map(|te| te.at).max();
            cursor.last_time = cursor.last_time.max(latest);
        }
        self.bound = self.bound.max(Some(chunk.window_end));
    }

    /// Notes that events were lost: each thread's next span may start past
    /// the events admitted for it.
    pub fn note_gap(&mut self) {
        for cursor in &mut self.cursors {
            cursor.resync = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TimedEvent};
    use crate::ids::ObjectId;
    use crate::stream::ThreadSpan;

    /// A chunk whose spans are `(thread, base_index, event times)`.
    fn chunk(seq: u64, window_end: u64, spans: &[(u32, usize, &[u64])]) -> TraceChunk {
        TraceChunk {
            seq,
            window_end: Time::from_nanos(window_end),
            spans: spans
                .iter()
                .map(|&(thread, base_index, times)| ThreadSpan {
                    thread: ThreadId::new(thread),
                    base_index,
                    events: times
                        .iter()
                        .map(|&t| {
                            TimedEvent::new(
                                Time::from_nanos(t),
                                Event::Read {
                                    obj: ObjectId::new(0),
                                    value: 0,
                                },
                            )
                        })
                        .collect(),
                })
                .collect(),
            grants: Vec::new(),
        }
    }

    /// A two-thread checker that admitted `(T0: 1, 5; T1: 3)` in a window
    /// ending at 10.
    fn after_first_chunk() -> ChunkContract {
        let mut contract = ChunkContract::new(Some(2));
        let first = chunk(0, 10, &[(0, 0, &[1, 5]), (1, 0, &[3])]);
        assert_eq!(contract.check(&first), Ok(()));
        contract.admit(&first);
        contract
    }

    fn first_error(contract: &ChunkContract, chunk: &TraceChunk) -> String {
        StreamError::from(contract.check(chunk).unwrap_err()).to_string()
    }

    #[test]
    fn each_rule_reports_the_readers_error() {
        let contract = after_first_chunk();
        let cases: [(TraceChunk, &str); 7] = [
            (
                chunk(1, 10, &[(0, 2, &[10])]),
                "malformed event stream: chunk 1 window 10ns does not advance past 10ns",
            ),
            (
                chunk(1, 20, &[(1, 1, &[12]), (0, 2, &[12])]),
                "malformed event stream: chunk 1 spans not in ascending thread order",
            ),
            (
                chunk(1, 20, &[(2, 0, &[12])]),
                "malformed event stream: span for out-of-range thread T2",
            ),
            (
                chunk(1, 20, &[(0, 3, &[12])]),
                "malformed event stream: non-contiguous span for T0: base 3 but 2 events seen",
            ),
            (
                chunk(1, 20, &[(0, 2, &[21])]),
                "malformed event stream: event 2 of T0 at 21ns is outside chunk 1's window",
            ),
            (
                chunk(1, 20, &[(0, 2, &[10])]),
                "malformed event stream: event 2 of T0 at 10ns is outside chunk 1's window",
            ),
            (
                chunk(1, 20, &[(0, 2, &[12, 11])]),
                "streamed trace is invalid: non-monotonic timestamp at event 3 of T0",
            ),
        ];
        for (chunk, expected) in &cases {
            assert_eq!(first_error(&contract, chunk), *expected);
        }
        assert_eq!(contract.check(&chunk(1, 20, &[(0, 2, &[11, 11])])), Ok(()));
    }

    #[test]
    fn a_gap_allows_one_forward_jump_and_no_rewind() {
        let mut contract = after_first_chunk();
        contract.note_gap();
        assert_eq!(
            first_error(&contract, &chunk(1, 20, &[(0, 1, &[12])])),
            "malformed event stream: span for T0 rewinds across a gap: base 1 but 2 events seen"
        );
        let jump = chunk(1, 20, &[(0, 7, &[12])]);
        assert_eq!(contract.check(&jump), Ok(()));
        contract.admit(&jump);
        // T0 is back in step; T1, absent from `jump`, may still jump.
        assert!(contract.check(&chunk(2, 30, &[(0, 9, &[25])])).is_err());
        assert_eq!(
            contract.check(&chunk(2, 30, &[(0, 8, &[25]), (1, 4, &[25])])),
            Ok(())
        );
    }

    #[test]
    fn an_empty_chunk_cannot_lower_the_bound() {
        let mut contract = after_first_chunk();
        let early = chunk(1, 4, &[]);
        assert_eq!(contract.check(&early), Ok(()));
        contract.admit(&early);
        assert_eq!(
            contract.check(&chunk(2, 20, &[(0, 2, &[8])])),
            Err(ContractViolation::NonMonotonicTime {
                thread: ThreadId::new(0),
                index: 2,
            })
        );
    }

    #[test]
    fn violations_lists_every_finding_at_most_one_per_event() {
        let contract = after_first_chunk();
        let bad = chunk(1, 10, &[(1, 0, &[9, 11]), (0, 5, &[4]), (3, 0, &[12])]);
        let found = contract.violations(&bad);
        let kinds: Vec<&str> = found
            .iter()
            .map(|v| match v {
                ContractViolation::WindowNotAdvancing { .. } => "window",
                ContractViolation::SpanOrder { .. } => "order",
                ContractViolation::ThreadOutOfRange { .. } => "range",
                ContractViolation::RewindAcrossGap { .. } => "rewind",
                ContractViolation::NonContiguousSpan { .. } => "contiguity",
                ContractViolation::OutsideWindow { .. } => "outside",
                ContractViolation::NonMonotonicTime { .. } => "time",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "window",
                "contiguity",
                "time",
                "outside",
                "order",
                "contiguity",
                "time",
                "range"
            ]
        );
        assert_eq!(contract.check(&bad), Err(found[0].clone()));
    }

    #[test]
    fn an_unknown_thread_count_admits_every_thread() {
        let mut contract = ChunkContract::new(None);
        let wide = chunk(0, 10, &[(5, 0, &[1])]);
        assert!(contract.violations(&wide).is_empty());
        contract.admit(&wide);
        assert_eq!(
            first_error(&contract, &chunk(1, 20, &[(5, 0, &[12])])),
            "malformed event stream: non-contiguous span for T5: base 0 but 1 events seen"
        );
    }
}
