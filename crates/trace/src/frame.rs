//! Record framing and decoding: the two steps of every chunk-file scan.
//!
//! A scan first walks record boundaries ([`Framer::next_frame`]) without
//! decoding anything, then deserializes each framed record
//! ([`decode_frame`]). The inline scanner behind
//! [`ChunkFileReader`](crate::ChunkFileReader) and
//! [`RawChunkRecords::open`](crate::RawChunkRecords::open) makes both calls
//! on the caller's thread; the pipelined scanner makes the first on its
//! framing thread and the second in its decode pool. Each [`ChunkFormat`]
//! has one framer and one decode step, so record coordinates,
//! resynchronization and errors cannot differ between the two scanners.

use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::pbin::{decode_checked_payload, ChunkFormat, PbinScanner};
use crate::stream::{RawRecord, StreamError};

/// The I/O-error message `BufRead::lines` reports for invalid UTF-8; the
/// JSON-lines decode step reproduces it.
pub(crate) const UTF8_ERROR: &str = "stream did not contain valid UTF-8";

/// Strips the line terminator the way `BufRead::lines` does: a trailing
/// `\n`, then a single `\r` before it (only when the `\n` was present).
fn trim_line(buf: &[u8]) -> &[u8] {
    match buf {
        [head @ .., b'\r', b'\n'] => head,
        [head @ .., b'\n'] => head,
        _ => buf,
    }
}

/// One record found by the framing walk: its file coordinates and what the
/// walk found. A payload, if any, is in the buffer passed to
/// [`Framer::next_frame`].
#[derive(Debug)]
pub(crate) struct Frame {
    /// 1-based record ordinal (the line number for JSON-lines).
    pub ordinal: usize,
    /// Byte offset of the record's start (a PBIN file's prelude is
    /// accounted to its first record).
    pub offset: u64,
    /// Bytes consumed by the record (including the newline for JSON-lines).
    pub bytes: u64,
    /// What the framing walk found.
    pub body: FrameBody,
}

/// Outcome of framing one record without decoding it.
#[derive(Debug)]
pub(crate) enum FrameBody {
    /// A JSON-lines record: the payload is the line without its terminator,
    /// not yet checked for UTF-8.
    JsonLine,
    /// A structurally complete PBIN frame: the payload is the frame body,
    /// its CRC check and decode still pending.
    Pbin {
        /// Record kind byte from the frame header.
        kind: u8,
        /// CRC stored in the frame, to be checked against the payload.
        stored_crc: u32,
    },
    /// A framing-level failure (I/O error, bad prelude, truncation, or a
    /// resynchronization skip), already shaped as the record's error.
    Failed(StreamError),
}

/// The framing walk over a chunk file, in either [`ChunkFormat`].
#[derive(Debug)]
pub(crate) enum Framer {
    /// Line splitting.
    Json(JsonFramer),
    /// Frame marker and length walking, with resynchronization.
    Pbin(PbinScanner),
}

impl Framer {
    /// Opens `path` for framing in `format`.
    ///
    /// # Errors
    ///
    /// Fails only if the file cannot be opened.
    pub(crate) fn open(path: &Path, format: ChunkFormat) -> Result<Self, StreamError> {
        Ok(match format {
            ChunkFormat::Json => Framer::Json(JsonFramer {
                input: BufReader::new(std::fs::File::open(path)?),
                line_no: 0,
                offset: 0,
                done: false,
            }),
            ChunkFormat::Pbin => Framer::Pbin(PbinScanner::open(path)?),
        })
    }

    /// Walks to the next record boundary, leaving the record's payload in
    /// `payload` (cleared first). Returns `None` at a clean end of file and
    /// after a framing failure that ends the walk.
    pub(crate) fn next_frame(&mut self, payload: &mut Vec<u8>) -> Option<Frame> {
        payload.clear();
        match self {
            Framer::Json(framer) => framer.next_frame(payload),
            Framer::Pbin(scanner) => scanner.next_frame(payload),
        }
    }
}

/// Line splitting of a JSON-lines file, tracking each line's coordinates.
#[derive(Debug)]
pub(crate) struct JsonFramer {
    input: BufReader<std::fs::File>,
    line_no: usize,
    /// Byte offset of the start of the next line.
    offset: u64,
    done: bool,
}

impl JsonFramer {
    fn next_frame(&mut self, line: &mut Vec<u8>) -> Option<Frame> {
        if self.done {
            return None;
        }
        let ordinal = self.line_no + 1;
        let offset = self.offset;
        match self.input.read_until(b'\n', line) {
            Ok(0) => {
                self.done = true;
                None
            }
            Ok(_) => {
                let stripped = trim_line(line).len();
                line.truncate(stripped);
                let bytes = stripped as u64 + 1;
                self.line_no = ordinal;
                self.offset += bytes;
                Some(Frame {
                    ordinal,
                    offset,
                    bytes,
                    body: FrameBody::JsonLine,
                })
            }
            Err(e) => {
                self.done = true;
                Some(Frame {
                    ordinal,
                    offset,
                    bytes: 0,
                    body: FrameBody::Failed(StreamError::Io(e.to_string())),
                })
            }
        }
    }
}

/// Decodes one framed record: parses a JSON line, or CRC-checks and decodes
/// a PBIN frame body. `payload` is the buffer [`Framer::next_frame`] filled.
pub(crate) fn decode_frame(frame: Frame, payload: &[u8]) -> RawRecord {
    let Frame {
        ordinal,
        offset,
        mut bytes,
        body,
    } = frame;
    let record = match body {
        FrameBody::Failed(error) => Err(error),
        FrameBody::Pbin { kind, stored_crc } => {
            decode_checked_payload(kind, stored_crc, payload, ordinal)
        }
        FrameBody::JsonLine => match std::str::from_utf8(payload) {
            Ok(text) => serde_json::from_str(text).map_err(|e| StreamError::Parse {
                line: ordinal,
                message: e.0,
            }),
            // `BufRead::lines` reports invalid UTF-8 as an I/O error.
            Err(_) => {
                bytes = 0;
                Err(StreamError::Io(UTF8_ERROR.into()))
            }
        },
    };
    RawRecord {
        line: ordinal,
        offset,
        bytes,
        record,
    }
}

/// Whether a scan stops after `record`: past an I/O error the stream
/// position is unknowable. A framer yields nothing after a failure that ends
/// its walk, but a JSON line that is not UTF-8 is only found by
/// [`decode_frame`], after the framer has moved on, so scanners check this.
pub(crate) fn ends_scan(record: &RawRecord) -> bool {
    matches!(record.record, Err(StreamError::Io(_)))
}
