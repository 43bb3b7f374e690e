//! Property tests pinning the bit-parallel search kernel to the scalar
//! entry-at-a-time oracle ([`Bcam::search_scalar`]): identical hits
//! **and** identical [`CamStats`] over random CAMs, padded/wildcard
//! queries, partial masks (shorter, equal, and longer than the entry
//! count), and injected faults — for every supported word-kernel backend
//! (`u64x4`, AVX2), for the query-blocked batch path at every block size
//! `1..=MAX_BATCH`, and for CAMs reassembled from shared planes (the
//! layout a mapped index image loads), plus a regression test for masks
//! reused across searches (span upkeep). These are the only tests that
//! switch kernels: every layer above the CAM runs the detected one.
//!
//! [`CamStats`]: casa_cam::CamStats

use std::sync::Arc;

use casa_cam::{Bcam, CamFaultModel, CamQuery, EntryMask, KernelBackend, Symbol, MAX_BATCH};
use casa_genome::shared::{SharedSlice, SliceView};
use casa_genome::{Base, PackedSeq};
use proptest::prelude::*;

fn packed(codes: &[u8]) -> PackedSeq {
    codes.iter().map(|&c| Base::from_code(c)).collect()
}

/// Builds a query of `pad` wildcards followed by `codes`, where code 4
/// means a wildcard in the middle of the query.
fn query(codes: &[u8], pad: usize) -> CamQuery {
    let mut symbols = vec![Symbol::Any; pad];
    symbols.extend(codes.iter().map(|&c| {
        if c >= 4 {
            Symbol::Any
        } else {
            Symbol::Base(Base::from_code(c))
        }
    }));
    CamQuery::new(symbols)
}

fn mask_from(bits: &[usize], len: usize) -> EntryMask {
    let mut mask = EntryMask::new(len);
    if len > 0 {
        for &b in bits {
            mask.set(b % len);
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitparallel_search_equals_scalar_oracle(
        (seq_codes, entry_bases, fault) in (
            prop::collection::vec(0u8..4, 0..1200),
            1usize..70,
            (0u64..1000, 0u8..3),
        ),
        (queries, mask_bits, mask_len) in (
            prop::collection::vec((prop::collection::vec(0u8..5, 0..80), 0usize..4), 1..6),
            prop::collection::vec(0usize..1_000_000, 0..60),
            0usize..1400,
        )
    ) {
        let seq = packed(&seq_codes);
        let mut kernel = Bcam::new(&seq, entry_bases);
        let (seed, kind) = fault;
        let model = match kind {
            0 => None,
            1 => Some(CamFaultModel { seed, stuck_rate: 0.15, flip_rate: 0.0 }),
            _ => Some(CamFaultModel { seed, stuck_rate: 0.08, flip_rate: 0.03 }),
        };
        if let Some(m) = &model {
            let report = kernel.inject_faults(m);
            prop_assert!(report.stuck_zero.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(report.stuck_one.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(report.flipped_bases.windows(2).all(|w| w[0] < w[1]));
        }
        let mut scalar = kernel.clone();
        let entries = kernel.entries();
        let partial = mask_from(&mask_bits, mask_len);
        let full = EntryMask::all(entries);

        // Oracle pass: record the expected hits per (query, mask) pair
        // and the expected final stats.
        let mut expected: Vec<Vec<u32>> = Vec::new();
        for (codes, pad) in &queries {
            let q = query(codes, *pad);
            for mask in [&partial, &full] {
                let hits = scalar.search_scalar(&q, mask);
                prop_assert!(hits.windows(2).all(|w| w[0] < w[1]));
                expected.push(hits);
            }
        }

        // Backend x fault matrix: every supported word kernel replays the
        // same search sequence on a clone of the faulted CAM and must
        // reproduce the oracle's hits and CamStats exactly.
        for backend in KernelBackend::supported() {
            let mut cam = kernel.clone();
            cam.set_kernel_backend(backend);
            let mut at = 0;
            for (codes, pad) in &queries {
                let q = query(codes, *pad);
                for mask in [&partial, &full] {
                    prop_assert_eq!(&cam.search(&q, mask), &expected[at], "{}", backend);
                    at += 1;
                }
            }
            prop_assert_eq!(cam.stats(), scalar.stats(), "{}", backend);
        }
    }

    #[test]
    fn batched_search_equals_oracle_at_every_block_size(
        (seq_codes, entry_bases, fault) in (
            prop::collection::vec(0u8..4, 0..700),
            1usize..60,
            (0u64..1000, 0u8..3),
        ),
        (queries, mask_bits, mask_len) in (
            prop::collection::vec((prop::collection::vec(0u8..5, 0..70), 0usize..4), 1..6),
            prop::collection::vec(0usize..1_000_000, 0..40),
            0usize..800,
        )
    ) {
        let seq = packed(&seq_codes);
        let mut base = Bcam::new(&seq, entry_bases);
        let (seed, kind) = fault;
        let model = match kind {
            0 => None,
            1 => Some(CamFaultModel { seed, stuck_rate: 0.15, flip_rate: 0.0 }),
            _ => Some(CamFaultModel { seed, stuck_rate: 0.08, flip_rate: 0.03 }),
        };
        if let Some(m) = &model {
            base.inject_faults(m);
        }
        let mask = if mask_len == 0 {
            EntryMask::all(base.entries())
        } else {
            mask_from(&mask_bits, mask_len)
        };
        let queries: Vec<CamQuery> = queries.iter().map(|(c, p)| query(c, *p)).collect();

        // Oracle: the per-entry scalar walk over the same query batch.
        let mut scalar = base.clone();
        let expected: Vec<Vec<u32>> =
            queries.iter().map(|q| scalar.search_scalar(q, &mask)).collect();

        let mut hits: Vec<Vec<u32>> = Vec::new();
        for backend in KernelBackend::supported() {
            for block in 1..=MAX_BATCH {
                let mut cam = base.clone();
                cam.set_kernel_backend(backend);
                cam.set_batch_block(block);
                cam.search_batch_into(&queries, &mask, &mut hits);
                prop_assert_eq!(&hits, &expected, "{} block={}", backend, block);
                prop_assert_eq!(cam.stats(), scalar.stats(), "{} block={}", backend, block);
            }
        }
    }

    #[test]
    fn shared_plane_cam_equals_oracle_under_every_kernel(
        (seq_codes, entry_bases, fault) in (
            prop::collection::vec(0u8..4, 1..900),
            1usize..60,
            (0u64..1000, 0u8..3),
        ),
        (queries, stored, mask_bits, mask_len) in (
            prop::collection::vec((prop::collection::vec(0u8..5, 0..70), 0usize..4), 1..6),
            prop::collection::vec(0usize..1_000_000, 1..4),
            prop::collection::vec(0usize..1_000_000, 0..40),
            0usize..1000,
        )
    ) {
        let seq = packed(&seq_codes);
        let planes: Arc<dyn SliceView<u64>> = Arc::new(Bcam::new(&seq, entry_bases).planes().to_vec());
        let mut mapped = Bcam::from_shared_planes(&seq, entry_bases, SharedSlice::new(planes))
            .expect("planes built for this sequence and stride");
        prop_assert!(mapped.planes_shared());
        // Stuck-at faults leave the planes shared; bit flips detach them
        // (copy-on-write), as fault injection on a mapped image does.
        let (seed, kind) = fault;
        match kind {
            0 => {}
            1 => { mapped.inject_faults(&CamFaultModel { seed, stuck_rate: 0.15, flip_rate: 0.0 }); }
            _ => { mapped.inject_faults(&CamFaultModel { seed, stuck_rate: 0.08, flip_rate: 0.03 }); }
        }
        let mask = if mask_len % 2 == 0 {
            EntryMask::all(mapped.entries())
        } else {
            mask_from(&mask_bits, mask_len)
        };
        // Random queries rarely match, so add whole stored entries (as
        // mapped, before any bit flip) to make hits the common case.
        let mut queries: Vec<CamQuery> = queries.iter().map(|(c, p)| query(c, *p)).collect();
        queries.extend(stored.iter().map(|&e| {
            let from = e % mapped.entries() * entry_bases;
            CamQuery::padded(&seq, from, entry_bases.min(seq.len() - from), 0)
        }));

        let mut scalar = mapped.clone();
        let expected: Vec<Vec<u32>> =
            queries.iter().map(|q| scalar.search_scalar(q, &mask)).collect();

        let mut hits: Vec<Vec<u32>> = Vec::new();
        for backend in KernelBackend::supported() {
            let mut per_query = mapped.clone();
            per_query.set_kernel_backend(backend);
            let got: Vec<Vec<u32>> = queries.iter().map(|q| per_query.search(q, &mask)).collect();
            prop_assert_eq!(&got, &expected, "{} per query", backend);
            prop_assert_eq!(per_query.stats(), scalar.stats(), "{} per query", backend);

            let mut batched = mapped.clone();
            batched.set_kernel_backend(backend);
            batched.search_batch_into(&queries, &mask, &mut hits);
            prop_assert_eq!(&hits, &expected, "{} batched", backend);
            prop_assert_eq!(batched.stats(), scalar.stats(), "{} batched", backend);
        }
    }
}

/// Injecting bit flips must rebuild the planes: searches afterwards see
/// the corrupted sequence, exactly like the scalar oracle.
#[test]
fn kernel_sees_flipped_bases_after_fault_injection() {
    let seq: PackedSeq = std::iter::repeat_n(Base::G, 640).collect();
    let mut kernel = Bcam::new(&seq, 8);
    let report = kernel.inject_faults(&CamFaultModel {
        seed: 11,
        stuck_rate: 0.0,
        flip_rate: 0.05,
    });
    assert!(!report.flipped_bases.is_empty());
    let mut scalar = kernel.clone();
    let mask = EntryMask::all(kernel.entries());
    // All-G query: only entries without a flipped base still match.
    let q = CamQuery::padded(&seq, 0, 8, 0);
    let hits_kernel = kernel.search(&q, &mask);
    let hits_scalar = scalar.search_scalar(&q, &mask);
    assert_eq!(hits_kernel, hits_scalar);
    assert!(hits_kernel.len() < kernel.entries());
    assert_eq!(kernel.stats(), scalar.stats());
}

/// One search step of the stale-span regression: the reused mask's next
/// state, reached by mutating it in place.
enum MaskStep {
    /// `copy_from` this mask.
    Copy(EntryMask),
    /// `reset`, then set these bits.
    Reset(Vec<usize>),
    /// `clear_all`, then set these bits.
    ClearAll(Vec<usize>),
}

/// Masks only ever widen their span cache, and the CAM keeps candidate
/// and match-line words of earlier searches outside the current span, so
/// the one new way to go wrong is a stale word leaking into a later
/// search. One `EntryMask` is reused across searches — a full group mask,
/// then `reset` to one or two bits far from the old span, `copy_from` a
/// narrow mask into a previously full one, narrow masks at opposite ends —
/// through `search_into`, `search_batch_into` and the batch protocol, with
/// and without stuck-at faults. Hits and the full `CamStats` must equal
/// the scalar oracle's, and no hit (stuck-one lines included) may lie
/// outside the mask.
#[test]
fn reused_masks_never_leak_stale_span_words() {
    let codes: Vec<u8> = (0..24_000u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as u8 & 3)
        .collect();
    let seq = packed(&codes);
    let stride = 8;
    let entries = Bcam::new(&seq, stride).entries();
    let group = casa_cam::GroupScheme::new(20, stride).mask_for_indicator(1 << 3, entries);
    let mut full_narrow = EntryMask::all(entries);
    full_narrow.reset(entries);
    full_narrow.set(1500);
    let steps = [
        MaskStep::Copy(group.clone()),
        MaskStep::Reset(vec![entries - 1]),
        MaskStep::Reset(vec![0, 2]),
        MaskStep::Copy(EntryMask::all(entries)),
        MaskStep::Copy(mask_from(&[700, 701], entries)),
        MaskStep::ClearAll(vec![entries - 70]),
        MaskStep::Copy(group),
        MaskStep::ClearAll(vec![64, 2999]),
        MaskStep::Copy(full_narrow),
        MaskStep::Reset(vec![]),
    ];
    // An all-wildcard query matches every candidate, so any leaked
    // candidate word shows; stored entries make hits the common case.
    let queries = |m: &EntryMask| -> Vec<CamQuery> {
        let mut qs = vec![CamQuery::new(vec![Symbol::Any; 3])];
        qs.extend(m.iter_ones().take(2).map(|e| {
            let from = e * stride;
            CamQuery::padded(&seq, from, stride.min(seq.len() - from), 0)
        }));
        qs.push(query(&[1, 2, 3, 0], 1));
        qs
    };

    let models = [
        None,
        Some(CamFaultModel {
            seed: 5,
            stuck_rate: 0.2,
            flip_rate: 0.0,
        }),
        Some(CamFaultModel {
            seed: 6,
            stuck_rate: 0.1,
            flip_rate: 0.02,
        }),
    ];
    for model in &models {
        let mut base = Bcam::new(&seq, stride);
        if let Some(m) = model {
            let report = base.inject_faults(m);
            assert!(m.stuck_rate == 0.0 || !report.stuck_one.is_empty());
        }
        for backend in KernelBackend::supported() {
            let mut oracle = base.clone();
            let mut per_query = base.clone();
            let mut batched = base.clone();
            let mut protocol = base.clone();
            for cam in [&mut per_query, &mut batched, &mut protocol] {
                cam.set_kernel_backend(backend);
            }
            let mut mask = EntryMask::all(entries);
            let mut hits = Vec::new();
            let mut batch_hits: Vec<Vec<u32>> = Vec::new();
            for (at, step) in steps.iter().enumerate() {
                match step {
                    MaskStep::Copy(src) => mask.copy_from(src),
                    MaskStep::Reset(bits) => {
                        mask.reset(entries);
                        bits.iter().for_each(|&b| mask.set(b));
                    }
                    MaskStep::ClearAll(bits) => {
                        mask.clear_all();
                        bits.iter().for_each(|&b| mask.set(b));
                    }
                }
                let qs = queries(&mask);
                let expected: Vec<Vec<u32>> =
                    qs.iter().map(|q| oracle.search_scalar(q, &mask)).collect();
                let label = format!("{backend} step {at} faults {model:?}");
                for (q, expect) in qs.iter().zip(&expected) {
                    assert!(expect.iter().all(|&e| mask.get(e as usize)), "{label}");
                    per_query.search_into(q, &mask, &mut hits);
                    assert_eq!(&hits, expect, "{label} per query");
                }
                batched.search_batch_into(&qs, &mask, &mut batch_hits);
                assert_eq!(batch_hits, expected, "{label} batched");
                let block = protocol.batch_block();
                for (qs, expected) in qs.chunks(block).zip(expected.chunks(block)) {
                    protocol.batch_begin();
                    for q in qs {
                        protocol.batch_push(q, &mask);
                    }
                    protocol.batch_flush();
                    for (slot, expect) in expected.iter().enumerate() {
                        assert_eq!(protocol.batch_hits(slot), &expect[..], "{label} protocol");
                    }
                }
                for cam in [&per_query, &batched, &protocol] {
                    assert_eq!(cam.stats(), oracle.stats(), "{label}");
                }
            }
        }
    }
}
