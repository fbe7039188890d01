//! The benchmark's own timed calls into single layers — frame codec,
//! CRC, the JSON index codec and the kvdb store — on inputs shaped like
//! the workload's: its payload sizes, index segments and live-set size.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use sorrento::codec;
use sorrento::layout::{linear_segment_size, IndexSegment, SegEntry};
use sorrento::proto::{FileEntry, Msg};
use sorrento::store::WritePayload;
use sorrento::types::{FileId, FileOptions, SegId, Version};
use sorrento_json::Json;
use sorrento_kvdb::{crc32, Db, DbConfig, FileBackend};
use sorrento_net::frame;
use sorrento_sim::NodeId;

use crate::stats::{median, Metrics};
use crate::workload::content;

/// Repeats of each timing; the median is reported.
const REPEATS: usize = 5;
/// Each repeat loops its body for at least this long.
const MIN_REPEAT_S: f64 = 0.02;

/// What the workload feeds the layers.
pub struct LayerInputs {
    /// Payload sizes of the workload's data messages.
    pub payloads: Vec<u64>,
    /// Sizes of the files it keeps live.
    pub files: Vec<u64>,
    /// Whether files are attached to their index segment (small files).
    pub attached: bool,
    /// Bytes one provider holds at the live-set size.
    pub provider_bytes: u64,
    /// Size of the images one provider persists per segment.
    pub image_bytes: u64,
}

/// Median over [`REPEATS`] of the seconds one call of `body` takes.
fn time_per_call(mut body: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while calls == 0 || t0.elapsed().as_secs_f64() < MIN_REPEAT_S {
                body();
                calls += 1;
            }
            t0.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&per_call).unwrap_or(0.0)
}

fn index_for(size: u64, attached: bool, seed: u64) -> IndexSegment {
    let mut ix = IndexSegment::new(
        FileId(u128::from(seed) << 64 | u128::from(size)),
        FileOptions::default(),
    );
    ix.size = size;
    if attached {
        ix.attached = Some(content(seed, size, 0, size));
    } else {
        ix.is_attached = false;
        let (mut i, mut left) = (0, size);
        while left > 0 {
            let len = linear_segment_size(i).min(left);
            ix.segments.push(SegEntry {
                seg: SegId(u128::from(i) + 1),
                version: Version(7),
                len,
            });
            left -= len;
            i += 1;
        }
    }
    ix
}

/// Time every layer on the workload's inputs; `scratch` is an empty
/// directory for the kvdb files.
pub fn measure(inputs: &LayerInputs, seed: u64, scratch: &Path, m: &mut Metrics) -> io::Result<()> {
    let me = NodeId::from_index(1000);
    let msgs: Vec<Msg> = inputs
        .payloads
        .iter()
        .map(|&len| Msg::WriteShadow {
            req: 1,
            shadow: 1,
            offset: 0,
            payload: WritePayload::Real(Bytes::from(content(seed, len, 0, len))),
            truncate: false,
        })
        .collect();
    let frames: Vec<Vec<u8>> = msgs.iter().map(|msg| frame::encode_msg(me, msg)).collect();
    let frame_kib = frames.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let encode_s = time_per_call(|| {
        for msg in &msgs {
            black_box(frame::encode_msg(me, msg));
        }
    });
    let decode_s = time_per_call(|| {
        for f in &frames {
            black_box(frame::decode_frame(f).expect("own frame decodes"));
        }
    });
    m.put(
        "frame.encode_ns_per_kib",
        encode_s * 1e9 / frame_kib,
        "ns/KiB",
    );
    m.put(
        "frame.decode_ns_per_kib",
        decode_s * 1e9 / frame_kib,
        "ns/KiB",
    );

    let crc_s = time_per_call(|| {
        for f in &frames {
            black_box(crc32(f));
        }
    });
    let frame_bytes = frame_kib * 1024.0;
    m.put("crc.mb_per_s", frame_bytes / crc_s / 1e6, "MB/s");

    let indexes: Vec<IndexSegment> = inputs
        .files
        .iter()
        .map(|&size| index_for(size, inputs.attached, seed))
        .collect();
    let encoded: Vec<String> = indexes
        .iter()
        .map(|ix| codec::index_to_json(ix).encode())
        .collect();
    let n = indexes.len() as f64;
    let enc_s = time_per_call(|| {
        for ix in &indexes {
            black_box(codec::index_to_json(ix).encode());
        }
    });
    let dec_s = time_per_call(|| {
        for s in &encoded {
            let j = Json::parse(s).expect("own index parses");
            black_box(codec::index_from_json(&j).expect("own index decodes"));
        }
    });
    m.put("codec.index_encode_us", enc_s * 1e6 / n, "us");
    m.put("codec.index_decode_us", dec_s * 1e6 / n, "us");
    let index_bytes = encoded.iter().map(String::len).sum::<usize>() as f64;
    let file_bytes = inputs.files.iter().sum::<u64>() as f64;
    m.put(
        "codec.index_bytes_per_payload_byte",
        index_bytes / file_bytes,
        "ratio",
    );
    let entry = FileEntry {
        file: FileId(u128::from(seed)),
        version: Version(42),
        size: inputs.files.first().copied().unwrap_or(0),
        is_dir: false,
        created_ns: seed,
        modified_ns: seed + 1,
        options: FileOptions::default(),
    };
    let entry_json = codec::entry_to_json(&entry).encode();
    let entry_s = time_per_call(|| {
        let j = Json::parse(&entry_json).expect("own entry parses");
        black_box(codec::entry_from_json(&j).expect("own entry decodes"));
    });
    m.put("codec.entry_decode_us", entry_s * 1e6, "us");

    // One provider's share of the live set, as whole-segment images: the
    // puts include the automatic checkpoints a 4 MiB WAL triggers.
    let mut db = Db::open(
        FileBackend::open(scratch.to_path_buf())?,
        DbConfig::default(),
    )?;
    let image = content(seed, 1, 0, inputs.image_bytes.max(1));
    let images = (inputs.provider_bytes / inputs.image_bytes.max(1)).max(1);
    let t0 = Instant::now();
    for i in 0..images {
        db.put(format!("seg/{i:08}"), &image)?;
    }
    let put_s = t0.elapsed().as_secs_f64();
    let put_mib = (images * image.len() as u64) as f64 / (1024.0 * 1024.0);
    m.put("kvdb.put_us_per_mib", put_s * 1e6 / put_mib, "us/MiB");
    let t0 = Instant::now();
    db.checkpoint()?;
    m.put("kvdb.checkpoint_ms", t0.elapsed().as_secs_f64() * 1e3, "ms");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_index_spans_linear_segments() {
        let ix = index_for(16 << 20, false, 1);
        assert_eq!(ix.segments.iter().map(|s| s.len).sum::<u64>(), 16 << 20);
        assert_eq!(ix.segments.len(), 9); // 8 × 1 MiB + 8 MiB
    }

    #[test]
    fn measures_every_layer_metric() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!(".test-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inputs = LayerInputs {
            payloads: vec![1000, 5000],
            files: vec![1000, 5000],
            attached: true,
            provider_bytes: 64 << 10,
            image_bytes: 16 << 10,
        };
        let mut m = Metrics::default();
        measure(&inputs, 3, &dir, &mut m).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(m.iter().count(), 9);
        assert!(m.iter().all(|(_, v, _)| v.is_finite() && v > 0.0));
    }
}
