//! The `binary-v2` codec: the one decoder and the one encoder of WAL
//! records and checkpoint documents.
//!
//! Every store file is `binary-v2`: compact length-prefixed records with a
//! per-record CRC32 and varint-packed fields, and snapshot documents as
//! CRC-guarded binvalue trees (see [`crate::binary`]). A WAL starts with
//! [`WAL_MAGIC`], a checkpoint with [`DOC_MAGIC`]. Stores written before
//! the redesign (`jsonl-v1`) are converted by [`crate::upgrade`] before
//! anything here reads them.
//!
//! ## WAL layout
//!
//! ```text
//! file   := magic record*            magic  = "ASHAWAL2" (8 bytes)
//! record := len payload crc          len    = LEB128 varint of payload size
//!                                    crc    = CRC32(payload), u32 LE
//! payload:= tag fields               tag    = 1 byte (record kind)
//! ```
//!
//! Torn tails stay recognizable: a crash mid-append leaves a record whose
//! `len`/payload/`crc` is merely *short* ([`DecodeStep::Incomplete`]),
//! while flipped bits inside an intact frame fail the CRC
//! ([`DecodeStep::Invalid`]). Damage at the very end of the file is a
//! discarded torn tail; damage followed by more valid records is
//! corruption.

use asha_core::telemetry::{DropCause, EventKind, IdleKind};
use asha_metrics::JsonValue;
use asha_obs::Event;

use crate::binary::{
    self, crc32, get_varint, put_f64, put_str, put_varint, read_f64, read_str, read_u8,
    read_varint, VarintRead,
};
use crate::wal::{SnapMarker, StoreEvent, WalRecord};

/// Magic prefix of a `binary-v2` WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"ASHAWAL2";
/// Magic prefix of a `binary-v2` snapshot / delta document.
pub const DOC_MAGIC: &[u8; 8] = b"ASHADOC2";

/// Upper bound on a single binary record's payload (sanity check: a length
/// beyond this means framing was destroyed, not that a huge record exists).
const MAX_RECORD_LEN: u64 = 64 << 20;

/// Reusable encode scratch for [`encode_record`], so steady-state appends
/// allocate nothing. `bytes` receives the finished on-disk frame.
#[derive(Debug, Default)]
pub struct EncodeBuf {
    /// The encoded frame, exactly as written to disk.
    pub bytes: Vec<u8>,
    /// Payload scratch (the frame prefixes the payload with its length, so
    /// it is built separately first).
    payload: Vec<u8>,
}

/// One step of incremental WAL decoding: what the front of `buf` holds.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeStep {
    /// The buffer ends before a complete record: a torn tail if at EOF,
    /// otherwise feed more bytes.
    Incomplete,
    /// A complete, valid record.
    Record {
        /// Bytes consumed from the front of the buffer.
        consumed: usize,
        /// The decoded record.
        record: WalRecord,
    },
    /// A complete frame whose content is damaged (CRC mismatch, unknown
    /// tag, short fields). Framing survives: decoding can continue past it, which is how
    /// the reader distinguishes a torn tail from mid-file corruption.
    Invalid {
        /// Bytes consumed from the front of the buffer.
        consumed: usize,
        /// What was wrong.
        why: String,
    },
    /// Framing itself is destroyed (impossible length prefix); nothing
    /// after this point can be decoded.
    Lost(String),
}

// ---------------------------------------------------------------------------
// binary-v2 record tags
// ---------------------------------------------------------------------------

// Telemetry payloads: tag, varint seq, f64 time, kind fields.
const TAG_SUGGEST: u8 = 0x01;
const TAG_PROMOTE: u8 = 0x02;
const TAG_GROW_BOTTOM: u8 = 0x03;
const TAG_JOB_START: u8 = 0x04;
const TAG_JOB_END: u8 = 0x05;
const TAG_DROP: u8 = 0x06;
const TAG_RETRY: u8 = 0x07;
const TAG_WORKER_IDLE: u8 = 0x08;

// Store payloads: tag, f64 time, fields.
const TAG_EXPERIMENT_CREATED: u8 = 0x10;
const TAG_SNAPSHOT_FULL: u8 = 0x11;
const TAG_PAUSED: u8 = 0x12;
const TAG_RESUMED: u8 = 0x13;
const TAG_EXPERIMENT_FINISHED: u8 = 0x14;
const TAG_SNAPSHOT_DELTA: u8 = 0x15;

fn put_event(out: &mut Vec<u8>, event: &Event) {
    out.push(match event.kind {
        EventKind::Suggest { .. } => TAG_SUGGEST,
        EventKind::Promote { .. } => TAG_PROMOTE,
        EventKind::GrowBottom { .. } => TAG_GROW_BOTTOM,
        EventKind::JobStart { .. } => TAG_JOB_START,
        EventKind::JobEnd { .. } => TAG_JOB_END,
        EventKind::Drop { .. } => TAG_DROP,
        EventKind::Retry { .. } => TAG_RETRY,
        EventKind::WorkerIdle { .. } => TAG_WORKER_IDLE,
    });
    put_varint(out, event.seq);
    put_f64(out, event.time);
    match event.kind {
        EventKind::Suggest { decision } => out.push(match decision {
            IdleKind::Wait => 0,
            IdleKind::Finished => 1,
        }),
        EventKind::Promote {
            trial,
            bracket,
            from,
            to,
            resource,
        } => {
            put_varint(out, trial);
            put_varint(out, bracket as u64);
            put_varint(out, from as u64);
            put_varint(out, to as u64);
            put_f64(out, resource);
        }
        EventKind::GrowBottom {
            trial,
            bracket,
            resource,
        } => {
            put_varint(out, trial);
            put_varint(out, bracket as u64);
            put_f64(out, resource);
        }
        EventKind::JobStart {
            trial,
            bracket,
            rung,
            resource,
        } => {
            put_varint(out, trial);
            put_varint(out, bracket as u64);
            put_varint(out, rung as u64);
            put_f64(out, resource);
        }
        EventKind::JobEnd {
            trial,
            rung,
            resource,
            loss,
        } => {
            put_varint(out, trial);
            put_varint(out, rung as u64);
            put_f64(out, resource);
            put_f64(out, loss);
        }
        EventKind::Drop { trial, rung, cause } => {
            put_varint(out, trial);
            put_varint(out, rung as u64);
            out.push(match cause {
                DropCause::Dropped => 0,
                DropCause::Timeout => 1,
            });
        }
        EventKind::Retry { trial, rung } => {
            put_varint(out, trial);
            put_varint(out, rung as u64);
        }
        EventKind::WorkerIdle { idle } => put_varint(out, idle as u64),
    }
}

fn get_event(tag: u8, payload: &[u8], pos: &mut usize) -> Result<Event, String> {
    let seq = read_varint(payload, pos)?;
    let time = read_f64(payload, pos)?;
    let kind = match tag {
        TAG_SUGGEST => EventKind::Suggest {
            decision: match read_u8(payload, pos)? {
                0 => IdleKind::Wait,
                1 => IdleKind::Finished,
                other => return Err(format!("unknown idle kind {other}")),
            },
        },
        TAG_PROMOTE => EventKind::Promote {
            trial: read_varint(payload, pos)?,
            bracket: read_varint(payload, pos)? as usize,
            from: read_varint(payload, pos)? as usize,
            to: read_varint(payload, pos)? as usize,
            resource: read_f64(payload, pos)?,
        },
        TAG_GROW_BOTTOM => EventKind::GrowBottom {
            trial: read_varint(payload, pos)?,
            bracket: read_varint(payload, pos)? as usize,
            resource: read_f64(payload, pos)?,
        },
        TAG_JOB_START => EventKind::JobStart {
            trial: read_varint(payload, pos)?,
            bracket: read_varint(payload, pos)? as usize,
            rung: read_varint(payload, pos)? as usize,
            resource: read_f64(payload, pos)?,
        },
        TAG_JOB_END => EventKind::JobEnd {
            trial: read_varint(payload, pos)?,
            rung: read_varint(payload, pos)? as usize,
            resource: read_f64(payload, pos)?,
            loss: read_f64(payload, pos)?,
        },
        TAG_DROP => EventKind::Drop {
            trial: read_varint(payload, pos)?,
            rung: read_varint(payload, pos)? as usize,
            cause: match read_u8(payload, pos)? {
                0 => DropCause::Dropped,
                1 => DropCause::Timeout,
                other => return Err(format!("unknown drop cause {other}")),
            },
        },
        TAG_RETRY => EventKind::Retry {
            trial: read_varint(payload, pos)?,
            rung: read_varint(payload, pos)? as usize,
        },
        TAG_WORKER_IDLE => EventKind::WorkerIdle {
            idle: read_varint(payload, pos)? as usize,
        },
        other => return Err(format!("unknown record tag {other:#04x}")),
    };
    Ok(Event { seq, time, kind })
}

fn encode_payload(record: &WalRecord, out: &mut Vec<u8>) {
    match record {
        WalRecord::Decision(event) | WalRecord::Job(event) => put_event(out, event),
        WalRecord::SnapshotMarker { time, marker } => match marker {
            SnapMarker::Full { snap, events } => {
                out.push(TAG_SNAPSHOT_FULL);
                put_f64(out, *time);
                put_varint(out, *snap);
                put_varint(out, *events);
            }
            SnapMarker::Delta {
                snap,
                delta,
                events,
            } => {
                out.push(TAG_SNAPSHOT_DELTA);
                put_f64(out, *time);
                put_varint(out, *snap);
                put_varint(out, *delta);
                put_varint(out, *events);
            }
        },
        WalRecord::Meta { time, event } => match event {
            StoreEvent::ExperimentCreated { name } => {
                out.push(TAG_EXPERIMENT_CREATED);
                put_f64(out, *time);
                put_str(out, name);
            }
            StoreEvent::Paused => {
                out.push(TAG_PAUSED);
                put_f64(out, *time);
            }
            StoreEvent::Resumed => {
                out.push(TAG_RESUMED);
                put_f64(out, *time);
            }
            StoreEvent::ExperimentFinished => {
                out.push(TAG_EXPERIMENT_FINISHED);
                put_f64(out, *time);
            }
        },
    }
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, String> {
    let mut pos = 0;
    let tag = read_u8(payload, &mut pos)?;
    let record = match tag {
        TAG_SUGGEST..=TAG_WORKER_IDLE => {
            let event = get_event(tag, payload, &mut pos)?;
            WalRecord::telemetry(event)
        }
        TAG_EXPERIMENT_CREATED => {
            let time = read_f64(payload, &mut pos)?;
            let name = read_str(payload, &mut pos)?;
            WalRecord::Meta {
                time,
                event: StoreEvent::ExperimentCreated { name },
            }
        }
        TAG_SNAPSHOT_FULL => {
            let time = read_f64(payload, &mut pos)?;
            WalRecord::SnapshotMarker {
                time,
                marker: SnapMarker::Full {
                    snap: read_varint(payload, &mut pos)?,
                    events: read_varint(payload, &mut pos)?,
                },
            }
        }
        TAG_SNAPSHOT_DELTA => {
            let time = read_f64(payload, &mut pos)?;
            WalRecord::SnapshotMarker {
                time,
                marker: SnapMarker::Delta {
                    snap: read_varint(payload, &mut pos)?,
                    delta: read_varint(payload, &mut pos)?,
                    events: read_varint(payload, &mut pos)?,
                },
            }
        }
        TAG_PAUSED => WalRecord::Meta {
            time: read_f64(payload, &mut pos)?,
            event: StoreEvent::Paused,
        },
        TAG_RESUMED => WalRecord::Meta {
            time: read_f64(payload, &mut pos)?,
            event: StoreEvent::Resumed,
        },
        TAG_EXPERIMENT_FINISHED => WalRecord::Meta {
            time: read_f64(payload, &mut pos)?,
            event: StoreEvent::ExperimentFinished,
        },
        other => return Err(format!("unknown record tag {other:#04x}")),
    };
    if pos != payload.len() {
        return Err(format!("record has {} trailing bytes", payload.len() - pos));
    }
    Ok(record)
}

/// Encode one record as its `binary-v2` frame into `buf.bytes` (cleared
/// first): the exact bytes appended to the file.
pub fn encode_record(record: &WalRecord, buf: &mut EncodeBuf) {
    buf.bytes.clear();
    buf.payload.clear();
    encode_payload(record, &mut buf.payload);
    put_varint(&mut buf.bytes, buf.payload.len() as u64);
    buf.bytes.extend_from_slice(&buf.payload);
    buf.bytes
        .extend_from_slice(&crc32(&buf.payload).to_le_bytes());
}

/// A whole `binary-v2` WAL file holding `records`: the magic, then one frame
/// each.
pub(crate) fn encode_wal(records: &[WalRecord]) -> Vec<u8> {
    let mut out = WAL_MAGIC.to_vec();
    let mut buf = EncodeBuf::default();
    for record in records {
        encode_record(record, &mut buf);
        out.extend_from_slice(&buf.bytes);
    }
    out
}

/// Decode one WAL record from the front of `buf` (the file's
/// [`WAL_MAGIC`] already stripped).
pub fn decode_step(buf: &[u8]) -> DecodeStep {
    if buf.is_empty() {
        return DecodeStep::Incomplete;
    }
    let (len, len_bytes) = match get_varint(buf) {
        VarintRead::Done(len, n) => (len, n),
        VarintRead::Short => return DecodeStep::Incomplete,
        VarintRead::Malformed => return DecodeStep::Lost("malformed record length".to_owned()),
    };
    if len > MAX_RECORD_LEN {
        return DecodeStep::Lost(format!("implausible record length {len}"));
    }
    let len = len as usize;
    let total = len_bytes + len + 4;
    if buf.len() < total {
        return DecodeStep::Incomplete;
    }
    let payload = &buf[len_bytes..len_bytes + len];
    let mut crc_raw = [0u8; 4];
    crc_raw.copy_from_slice(&buf[len_bytes + len..total]);
    let stored = u32::from_le_bytes(crc_raw);
    let actual = crc32(payload);
    if stored != actual {
        return DecodeStep::Invalid {
            consumed: total,
            why: format!("CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"),
        };
    }
    match decode_payload(payload) {
        Ok(record) => DecodeStep::Record {
            consumed: total,
            record,
        },
        Err(why) => DecodeStep::Invalid {
            consumed: total,
            why,
        },
    }
}

/// What frames `payload` (a document's binvalue bytes) as a `binary-v2`
/// file: the bytes before it (magic, varint length) and after it (CRC32).
pub(crate) fn document_frame(payload: &[u8]) -> (Vec<u8>, [u8; 4]) {
    let mut head = DOC_MAGIC.to_vec();
    put_varint(&mut head, payload.len() as u64);
    (head, crc32(payload).to_le_bytes())
}

/// Encode a snapshot / delta document as `binary-v2` bytes into `out`
/// (cleared first).
pub fn encode_document(doc: &JsonValue, out: &mut Vec<u8>) {
    out.clear();
    binary::put_value(out, doc);
    let (head, crc) = document_frame(out);
    out.splice(..0, head);
    out.extend_from_slice(&crc);
}

/// The binvalue payload of a checkpoint file, reusing the file's buffer:
/// the frame and its CRC are checked and stripped.
pub(crate) fn document_payload(mut bytes: Vec<u8>) -> Result<Vec<u8>, String> {
    let rest = bytes
        .strip_prefix(DOC_MAGIC.as_slice())
        .ok_or("missing binary document magic")?;
    let (len, len_bytes) = match get_varint(rest) {
        VarintRead::Done(len, n) => (len, n),
        _ => return Err("truncated document length".to_owned()),
    };
    let len = len as usize;
    let total = len_bytes
        .checked_add(len)
        .and_then(|t| t.checked_add(4))
        .ok_or("implausible document length")?;
    if rest.len() < total {
        return Err("truncated document".to_owned());
    }
    if rest.len() > total {
        return Err(format!(
            "document has {} trailing bytes",
            rest.len() - total
        ));
    }
    let payload = &rest[len_bytes..len_bytes + len];
    let mut crc_raw = [0u8; 4];
    crc_raw.copy_from_slice(&rest[len_bytes + len..total]);
    let stored = u32::from_le_bytes(crc_raw);
    let actual = crc32(payload);
    if stored != actual {
        return Err(format!(
            "document CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
        ));
    }
    let start = DOC_MAGIC.len() + len_bytes;
    bytes.truncate(start + len);
    bytes.drain(..start);
    Ok(bytes)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One record of every kind, with a non-ASCII name and an infinite
    /// loss.
    pub(crate) fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Meta {
                time: 0.0,
                event: StoreEvent::ExperimentCreated {
                    name: "exp-α".to_owned(),
                },
            },
            WalRecord::telemetry(Event {
                seq: 0,
                time: 0.0,
                kind: EventKind::GrowBottom {
                    trial: 0,
                    bracket: 0,
                    resource: 1.0,
                },
            }),
            WalRecord::telemetry(Event {
                seq: 1,
                time: 0.25,
                kind: EventKind::JobStart {
                    trial: 0,
                    bracket: 0,
                    rung: 0,
                    resource: 1.0,
                },
            }),
            WalRecord::telemetry(Event {
                seq: 2,
                time: 1.5,
                kind: EventKind::JobEnd {
                    trial: 0,
                    rung: 0,
                    resource: 1.0,
                    loss: f64::INFINITY,
                },
            }),
            WalRecord::telemetry(Event {
                seq: 3,
                time: 1.5,
                kind: EventKind::Suggest {
                    decision: IdleKind::Wait,
                },
            }),
            WalRecord::telemetry(Event {
                seq: 4,
                time: 2.0,
                kind: EventKind::Promote {
                    trial: 0,
                    bracket: 0,
                    from: 0,
                    to: 1,
                    resource: 4.0,
                },
            }),
            WalRecord::telemetry(Event {
                seq: 5,
                time: 2.5,
                kind: EventKind::Drop {
                    trial: 9,
                    rung: 1,
                    cause: DropCause::Timeout,
                },
            }),
            WalRecord::telemetry(Event {
                seq: 6,
                time: 2.75,
                kind: EventKind::Retry { trial: 9, rung: 1 },
            }),
            WalRecord::telemetry(Event {
                seq: 7,
                time: 3.0,
                kind: EventKind::WorkerIdle { idle: 3 },
            }),
            WalRecord::SnapshotMarker {
                time: 3.0,
                marker: SnapMarker::Full { snap: 0, events: 8 },
            },
            WalRecord::SnapshotMarker {
                time: 4.0,
                marker: SnapMarker::Delta {
                    snap: 0,
                    delta: 2,
                    events: 8,
                },
            },
            WalRecord::Meta {
                time: 4.5,
                event: StoreEvent::Paused,
            },
            WalRecord::Meta {
                time: 5.0,
                event: StoreEvent::Resumed,
            },
            WalRecord::Meta {
                time: 6.0,
                event: StoreEvent::ExperimentFinished,
            },
        ]
    }

    /// `records` as a WAL body: the encoder's frames after the magic.
    fn wal_body(records: &[WalRecord]) -> Vec<u8> {
        encode_wal(records)[WAL_MAGIC.len()..].to_vec()
    }

    #[test]
    fn binary_decodes_every_record_kind() {
        let records = sample_records();
        let stream = wal_body(&records);
        let mut decoded = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            match decode_step(&stream[pos..]) {
                DecodeStep::Record { consumed, record } => {
                    decoded.push(record);
                    pos += consumed;
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
        assert_eq!(decoded, records);
    }

    #[test]
    fn binary_frames_are_smaller_than_jsonl() {
        let records = sample_records();
        let jsonl: usize = records.iter().map(|r| r.render_jsonl().len() + 1).sum();
        let binary = wal_body(&records).len();
        assert!(
            binary * 2 < jsonl,
            "binary ({binary}B) should be under half of jsonl ({jsonl}B)"
        );
    }

    #[test]
    fn binary_torn_prefixes_read_incomplete_not_invalid() {
        let frame = wal_body(&sample_records()[1..2]);
        for cut in 0..frame.len() {
            assert_eq!(
                decode_step(&frame[..cut]),
                DecodeStep::Incomplete,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn binary_bitflips_fail_crc() {
        let mut frame = wal_body(&sample_records()[2..3]);
        // Flip a payload bit (past the 1-byte length prefix).
        frame[2] ^= 0x40;
        match decode_step(&frame) {
            DecodeStep::Invalid { consumed, why } => {
                assert_eq!(consumed, frame.len());
                assert!(why.contains("CRC"), "{why}");
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn snapshot_documents_round_trip() {
        let doc = JsonValue::obj([
            ("schema", JsonValue::Str("x".to_owned())),
            ("seq", JsonValue::Int(3)),
            ("loss", JsonValue::Num(0.125)),
            (
                "arr",
                JsonValue::Arr(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
        ]);
        let mut bytes = Vec::new();
        encode_document(&doc, &mut bytes);
        assert!(bytes.starts_with(DOC_MAGIC));
        let payload = document_payload(bytes.clone()).unwrap();
        let back = crate::binary::decode_value(&payload).unwrap();
        assert!(crate::binary::json_eq(&doc, &back));
        // A flipped payload bit in a binary document is caught by its CRC.
        let flip = bytes.len() - 6;
        bytes[flip] ^= 0x01;
        assert!(document_payload(bytes).unwrap_err().contains("CRC"));
    }
}
