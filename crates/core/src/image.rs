//! Building and loading zero-copy index images for whole seeding
//! sessions.
//!
//! [`casa_index::image`] defines the artifact format (page-aligned,
//! versioned, checksummed sections) without knowing what the sections
//! mean. This module supplies the semantics: [`build_index_image`]
//! constructs every reference-side array exactly as a fresh
//! [`SeedingSession`](crate::SeedingSession) would — the reference-wide
//! pre-seeding table, per-partition CAM entry bitplanes and golden
//! suffix arrays — and packs them plus the 2-bit reference text and the
//! serialized [`CasaConfig`] into one image. [`LoadedIndex::open`] mmaps
//! an image and re-derives the session inputs with **no table rebuild**:
//! the CAM planes, filter tables and suffix arrays are borrowed straight
//! from the mapping (see `casa_genome::shared`), so cold start is
//! dominated by page faults, not index construction.
//!
//! The bit-identity contract: a session built from a mapped image
//! produces byte-identical SMEMs, stats and SAM to one built from the
//! reference, for every backend and worker count (asserted in
//! `tests/index_image.rs`). The CAM backend is the zero-copy path; the
//! FM/ERT software baselines rebuild their private structures from the
//! image's reference text (their indexes are not imaged), which still
//! spares the caller reference distribution and config drift.
//!
//! The config rides in the image as a canonical JSON blob. The vendored
//! `serde_json` keeps object keys sorted, so equal configs serialize to
//! equal bytes and the image fingerprint (config + reference hash) is
//! deterministic.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use casa_cam::Bcam;
use casa_filter::FusedFilter;
use casa_genome::{PackedSeq, Partition};
use casa_index::image::{ImageBuilder, ImageError, IndexImage, SectionKind};
use casa_index::SuffixArray;
use serde_json::{json, Value};

use crate::{CasaConfig, ConfigError, Error};

/// Typed failure modes of building or loading an index image.
#[derive(Debug)]
pub enum IndexImageError {
    /// The artifact layer rejected the file (I/O, checksum, truncation…).
    Image(ImageError),
    /// The embedded config blob is malformed or fails validation.
    Config(String),
    /// The image's sections disagree with each other or with the
    /// embedded config (named invariant).
    Mismatch(&'static str),
}

impl fmt::Display for IndexImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexImageError::Image(e) => write!(f, "{e}"),
            IndexImageError::Config(what) => write!(f, "index image config invalid: {what}"),
            IndexImageError::Mismatch(what) => write!(f, "index image inconsistent: {what}"),
        }
    }
}

impl std::error::Error for IndexImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexImageError::Image(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ImageError> for IndexImageError {
    fn from(e: ImageError) -> Self {
        IndexImageError::Image(e)
    }
}

impl From<IndexImageError> for Error {
    fn from(e: IndexImageError) -> Self {
        Error::Image {
            what: e.to_string(),
        }
    }
}

/// What [`build_index_image`] produced.
#[derive(Debug, Clone)]
pub struct ImageBuildReport {
    /// Content fingerprint (config + reference hash) stamped into the
    /// image header.
    pub fingerprint: u64,
    /// Number of reference partitions imaged.
    pub partitions: usize,
    /// Final artifact size in bytes.
    pub bytes: u64,
    /// Wall-clock spent building and writing (the cost the mmap load
    /// path amortizes away).
    pub elapsed: Duration,
}

/// Builds every reference-side array for `reference` under `config` and
/// writes them as one index image at `path` (atomically).
///
/// The arrays are constructed with the same code paths a fresh session
/// uses (`FusedFilter::build`, `Bcam::new`, `SuffixArray::build`), so a
/// session loaded from the image is bit-identical to one built directly.
pub fn build_index_image(
    reference: &PackedSeq,
    config: CasaConfig,
    path: &Path,
) -> Result<ImageBuildReport, IndexImageError> {
    let start = Instant::now();
    let config = config
        .validated()
        .map_err(|e| IndexImageError::Config(e.to_string()))?;
    let partitions: Vec<Partition> = config.partitioning.split(reference);
    if partitions.is_empty() {
        return Err(IndexImageError::Mismatch("reference is empty"));
    }
    let mut builder = ImageBuilder::new(config_to_json(&config).as_bytes());
    builder.add_bytes(
        SectionKind::RefText,
        0,
        &reference.to_packed_bytes(),
        reference.len() as u64,
    );
    let seqs: Vec<&PackedSeq> = partitions.iter().map(|p| &p.seq).collect();
    let filter = FusedFilter::build(&seqs, config.filter)
        .map_err(|e| IndexImageError::Config(ConfigError::from(e).to_string()))?;
    builder.add_u32s(SectionKind::FilterRows, 0, filter.rows());
    builder.add_u32s(SectionKind::FilterTag, 0, filter.tag());
    builder.add_u64s(SectionKind::FilterData, 0, &filter.data_words());
    drop(filter);
    for p in &partitions {
        let pi = p.index as u32;
        let cam = Bcam::new(&p.seq, config.filter.stride);
        let sa = SuffixArray::build(&p.seq);
        builder.add_u64s(SectionKind::CamPlanes, pi, cam.planes());
        builder.add_u32s(SectionKind::Sa, pi, sa.sa());
    }
    let fingerprint = builder.write_file(path)?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    Ok(ImageBuildReport {
        fingerprint,
        partitions: partitions.len(),
        bytes,
        elapsed: start.elapsed(),
    })
}

/// An opened index image with its config and reference decoded, ready to
/// hand to [`SeedingSession::from_image`](crate::SeedingSession::from_image).
///
/// Decoding copies only the config (a few hundred bytes) and the 2-bit
/// reference text (`n/4` bytes, one memcpy-speed pass); every large
/// array — CAM planes, filter tables, suffix arrays — stays borrowed
/// from the mapping.
#[derive(Debug)]
pub struct LoadedIndex {
    image: IndexImage,
    config: CasaConfig,
    reference: PackedSeq,
    elapsed: Duration,
}

impl LoadedIndex {
    /// Opens, fully verifies and decodes the image at `path` (every
    /// payload checksum is checked before any view is handed out).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<LoadedIndex, IndexImageError> {
        LoadedIndex::open_with(path, casa_index::image::VerifyMode::Full)
    }

    /// Opens with metadata-only verification: header and meta checksums,
    /// section bounds and alignment are still checked (a fast open can
    /// never read out of bounds), but the payload word checksums — a
    /// full sequential read of the file — are skipped. This is the
    /// O(ms) cold-start path for locally built, trusted artifacts
    /// (`casa-serve --index-image` startup); `index inspect`, CLI runs,
    /// and `/admin/reload` keep full verification.
    pub fn open_fast<P: AsRef<Path>>(path: P) -> Result<LoadedIndex, IndexImageError> {
        LoadedIndex::open_with(path, casa_index::image::VerifyMode::Meta)
    }

    fn open_with<P: AsRef<Path>>(
        path: P,
        verify: casa_index::image::VerifyMode,
    ) -> Result<LoadedIndex, IndexImageError> {
        let start = Instant::now();
        let image = IndexImage::open_with(path.as_ref(), verify)?;
        let text = std::str::from_utf8(image.config_bytes())
            .map_err(|_| IndexImageError::Config("config blob is not UTF-8".into()))?;
        let config = config_from_json(text).map_err(IndexImageError::Config)?;
        let section = image
            .find(SectionKind::RefText, 0)
            .ok_or(IndexImageError::Mismatch("missing reference text section"))?;
        let len = section.elem_count as usize;
        let reference = PackedSeq::from_packed_bytes(image.section_bytes(section), len).ok_or(
            IndexImageError::Mismatch("reference text section malformed"),
        )?;
        let expected = config.partitioning.part_count(reference.len());
        if image.partitions() != expected {
            return Err(IndexImageError::Mismatch(
                "partition sections disagree with the embedded config",
            ));
        }
        Ok(LoadedIndex {
            image,
            config,
            reference,
            elapsed: start.elapsed(),
        })
    }

    /// The embedded (validated) config.
    pub fn config(&self) -> &CasaConfig {
        &self.config
    }

    /// The decoded reference sequence.
    pub fn reference(&self) -> &PackedSeq {
        &self.reference
    }

    /// The image's content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.image.fingerprint()
    }

    /// The underlying verified artifact.
    pub fn image(&self) -> &IndexImage {
        &self.image
    }

    /// Path the image was opened from.
    pub fn path(&self) -> &Path {
        self.image.path()
    }

    /// Wall-clock spent opening, verifying and decoding.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// The reference-wide pre-seeding table, borrowed from the mapping
    /// (shape-checked against `parts`; see
    /// [`FusedFilter::from_shared_parts`]).
    pub(crate) fn fused_filter(&self, parts: &[Partition]) -> Result<FusedFilter, Error> {
        let rows = self
            .image
            .u32_view(SectionKind::FilterRows, 0)
            .ok_or_else(|| missing("pre-seeding rows"))?;
        let tag = self
            .image
            .u32_view(SectionKind::FilterTag, 0)
            .ok_or_else(|| missing("pre-seeding tag array"))?;
        let data = self
            .image
            .u64_view(SectionKind::FilterData, 0)
            .ok_or_else(|| missing("pre-seeding data array"))?;
        let lens: Vec<usize> = parts.iter().map(|p| p.seq.len()).collect();
        FusedFilter::from_shared_parts(self.config.filter, &lens, rows, tag, data).map_err(|what| {
            Error::Image {
                what: what.to_string(),
            }
        })
    }

    /// One partition's computing CAM, its planes borrowed from the
    /// mapping.
    pub(crate) fn cam_for_partition(&self, p: &Partition) -> Result<Bcam, Error> {
        let planes = self
            .image
            .u64_view(SectionKind::CamPlanes, p.index as u32)
            .ok_or_else(|| missing(&format!("partition {} CAM planes", p.index)))?;
        Bcam::from_shared_planes(&p.seq, self.config.filter.stride, planes).map_err(|what| {
            Error::Image {
                what: format!("partition {}: {what}", p.index),
            }
        })
    }

    /// The partition's golden suffix array, borrowed from the mapping if
    /// the image carries it (shape-checked against the partition).
    pub(crate) fn suffix_array_for_partition(&self, p: &Partition) -> Option<SuffixArray> {
        let view = self.image.u32_view(SectionKind::Sa, p.index as u32)?;
        if view.as_slice().len() != p.seq.len() {
            return None;
        }
        Some(SuffixArray::from_shared(p.seq.clone(), view))
    }
}

fn missing(what: &str) -> Error {
    Error::Image {
        what: format!("image has no {what} section"),
    }
}

/// Serializes a config as canonical (sorted-key, compact) JSON.
pub fn config_to_json(config: &CasaConfig) -> String {
    json!({
        "filter": {
            "k": config.filter.k,
            "m": config.filter.m,
            "stride": config.filter.stride,
            "groups": config.filter.groups,
        },
        "min_smem_len": config.min_smem_len,
        "lanes": config.lanes,
        "fifo_depth": config.fifo_depth,
        "filter_banks": config.filter_banks,
        "exact_match_preprocessing": config.exact_match_preprocessing,
        "use_filter_table": config.use_filter_table,
        "use_pivot_analysis": config.use_pivot_analysis,
        "partitioning": {
            "part_len": config.partitioning.part_len,
            "overlap": config.partitioning.overlap,
        },
    })
    .to_string()
}

/// Parses and validates a config from its canonical JSON form.
pub fn config_from_json(text: &str) -> Result<CasaConfig, String> {
    let root = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
    let config = CasaConfig {
        filter: casa_filter::FilterConfig {
            k: usize_field(&root, "filter", "k")?,
            m: usize_field(&root, "filter", "m")?,
            stride: usize_field(&root, "filter", "stride")?,
            groups: usize_field(&root, "filter", "groups")?,
        },
        min_smem_len: usize_field(&root, "", "min_smem_len")?,
        lanes: usize_field(&root, "", "lanes")?,
        fifo_depth: usize_field(&root, "", "fifo_depth")?,
        filter_banks: usize_field(&root, "", "filter_banks")?,
        exact_match_preprocessing: bool_field(&root, "exact_match_preprocessing")?,
        use_filter_table: bool_field(&root, "use_filter_table")?,
        use_pivot_analysis: bool_field(&root, "use_pivot_analysis")?,
        partitioning: casa_genome::PartitionScheme {
            part_len: usize_field(&root, "partitioning", "part_len")?,
            overlap: usize_field(&root, "partitioning", "overlap")?,
        },
    };
    // Struct-literal construction skips the panicking constructors on
    // purpose: corrupt input must surface as an Err, never a panic.
    config.validated().map_err(|e| e.to_string())
}

fn usize_field(root: &Value, group: &str, key: &str) -> Result<usize, String> {
    let holder = if group.is_empty() {
        root
    } else {
        root.get(group)
            .ok_or_else(|| format!("missing object \"{group}\""))?
    };
    holder
        .get(key)
        .and_then(Value::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("missing or non-integer field \"{key}\""))
}

fn bool_field(root: &Value, key: &str) -> Result<bool, String> {
    match root.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean field \"{key}\"")),
    }
}

/// Returns the path with the conventional index-image extension applied
/// if `path` has none (`ref.fa` → `ref.fa.casaimg`).
pub fn default_image_path(path: &Path) -> PathBuf {
    if path.extension().is_some_and(|e| e == "casaimg") {
        path.to_path_buf()
    } else {
        let mut s = path.as_os_str().to_os_string();
        s.push(".casaimg");
        PathBuf::from(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::synth::{generate_reference, ReferenceProfile};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("casa_core_image_{}_{}", std::process::id(), name))
    }

    #[test]
    fn config_json_roundtrips() {
        for config in [
            CasaConfig::small(500),
            CasaConfig::paper(1 << 20, 101),
            CasaConfig::small(64),
        ] {
            let text = config_to_json(&config);
            let back = config_from_json(&text).unwrap();
            assert_eq!(back, config);
            // Canonical form: serializing again yields the same bytes.
            assert_eq!(config_to_json(&back), text);
        }
    }

    #[test]
    fn config_json_rejects_invalid_values_without_panicking() {
        // Structurally valid JSON, semantically invalid config
        // (overlap >= part_len) must be a typed Err.
        let mut config = CasaConfig::small(500);
        config.partitioning.overlap = config.partitioning.part_len + 7;
        let text = config_to_json(&config);
        assert!(config_from_json(&text).is_err());
        assert!(config_from_json("{\"lanes\": 2}").is_err());
        assert!(config_from_json("not json").is_err());
    }

    #[test]
    fn build_then_open_roundtrips_reference_and_config() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 11);
        let config = CasaConfig::small(1_000);
        let path = tmp("roundtrip.casaimg");
        let report = build_index_image(&reference, config, &path).unwrap();
        assert!(report.partitions >= 3);
        assert!(report.bytes > 0);

        let loaded = LoadedIndex::open(&path).unwrap();
        assert_eq!(loaded.fingerprint(), report.fingerprint);
        assert_eq!(loaded.config(), &config);
        assert_eq!(loaded.reference().to_string(), reference.to_string());
        assert_eq!(loaded.image().partitions(), report.partitions);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_tracks_reference_and_config_content() {
        let a = generate_reference(&ReferenceProfile::human_like(), 2_000, 1);
        let b = generate_reference(&ReferenceProfile::human_like(), 2_000, 2);
        let config = CasaConfig::small(900);
        let pa = tmp("fp_a.casaimg");
        let pb = tmp("fp_b.casaimg");
        let pc = tmp("fp_c.casaimg");
        let ra = build_index_image(&a, config, &pa).unwrap();
        let rb = build_index_image(&b, config, &pb).unwrap();
        let rc = build_index_image(&a, CasaConfig::small(800), &pc).unwrap();
        assert_ne!(ra.fingerprint, rb.fingerprint, "reference must matter");
        assert_ne!(ra.fingerprint, rc.fingerprint, "config must matter");
        // Same inputs: same fingerprint (determinism).
        let ra2 = build_index_image(&a, config, &pa).unwrap();
        assert_eq!(ra.fingerprint, ra2.fingerprint);
        for p in [pa, pb, pc] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn session_from_image_is_bit_identical_and_zero_copy() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 21);
        let config = CasaConfig::small(1_500);
        let path = tmp("session.casaimg");
        build_index_image(&reference, config, &path).unwrap();
        let loaded = LoadedIndex::open(&path).unwrap();

        let reads: Vec<PackedSeq> = (0..8).map(|i| reference.subseq(i * 400, 80)).collect();
        let fresh = crate::SeedingSession::with_backend(
            &reference,
            config,
            2,
            crate::FaultPlan::default(),
            crate::BackendKind::Cam,
        )
        .unwrap();
        let mapped = crate::SeedingSession::from_image(
            &loaded,
            2,
            crate::FaultPlan::default(),
            crate::BackendKind::Cam,
        )
        .unwrap();
        // The CAM backend really borrows from the mapping.
        assert!(mapped.storage_shared(), "CAM backend must be zero-copy");
        assert!(!fresh.storage_shared());
        assert_eq!(
            fresh.seed_reads(&reads).smems,
            mapped.seed_reads(&reads).smems
        );

        // Software baselines rebuild from the imaged reference but stay on
        // the same bit-identity contract.
        let fm = crate::SeedingSession::from_image(
            &loaded,
            1,
            crate::FaultPlan::default(),
            crate::BackendKind::Fm,
        )
        .unwrap();
        assert_eq!(fresh.seed_reads(&reads).smems, fm.seed_reads(&reads).smems);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn default_image_path_appends_extension_once() {
        assert_eq!(
            default_image_path(Path::new("ref.fa")),
            PathBuf::from("ref.fa.casaimg")
        );
        assert_eq!(
            default_image_path(Path::new("ref.casaimg")),
            PathBuf::from("ref.casaimg")
        );
    }
}
