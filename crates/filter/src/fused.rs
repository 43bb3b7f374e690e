//! One pre-seeding table for the whole reference: the fused filter.
//!
//! A [`PreSeedingFilter`] per partition makes every pivot k-mer pay one
//! mini index → tag → data miss chain *per partition*, and on an
//! off-target partition nearly every chain ends in a miss. The
//! [`FusedFilter`] holds the same rows for every partition behind one
//! m-mer-addressed row array, so one probe answers a pivot for all
//! partitions at once:
//!
//! * **rows** — one row per m-mer: the bucket's start in the tag array,
//!   then each partition's occurrence count (`P + 1` words per row, plus
//!   a closing total, so a row's end is the next row's start);
//! * **tag** — one word per k-mer occurrence of any partition,
//!   `(restmer << part_bits) | partition`, sorted by (restmer, partition,
//!   position) inside each bucket;
//! * **data** — the occurrence's [`SearchIndicator`], parallel to the
//!   tag.
//!
//! Every per-partition observable is derived from the fused rows and is
//! bit-identical to the partition's own [`PreSeedingFilter`]: a
//! partition's bucket size is its count in the row, its matching rows are
//! the contiguous `(restmer, partition)` run, and its rows keep the
//! partition-local order (m-mer, restmer, position) — which is also the
//! order [`PreSeedingFilter::build`] produces, so partition-local row
//! numbers (the filter fault sites) name the same occurrence in both.
//!
//! Both tables are built by the same counting-sort placement
//! ([`place`]): count per (m-mer, partition), prefix-sum, place every row
//! in (partition, position) order, then stably sort each small bucket by
//! its tag word. No reference-wide keyed vector is ever materialised.
//!
//! Rows read from a mapped image are trusted only as far as they are
//! consistent: a row whose bounds leave the tag array or whose counts do
//! not add up to its bucket size answers every lookup with the full
//! indicator (every start offset, every group). The computing CAM then
//! decides, so a corrupted row costs searches, never a wrong SMEM or a
//! panic.

use casa_genome::mix::{coin, site_hash};
use casa_genome::shared::{SharedSlice, SliceStore};
use casa_genome::PackedSeq;

use crate::filter::DOMAIN_FILTER_FLIP;
use crate::{
    FilterConfig, FilterFaultModel, FilterFaultReport, FilterStats, IndicatorStore,
    PreSeedingFilter, SearchIndicator, TagLayout,
};

/// Pipeline distance of the batched probes, in codes: while code `i` is
/// probed, stage 2 reads the row of code `i + LOOKUP_AHEAD` and stage 1
/// prefetches the row of code `i + 2 * LOOKUP_AHEAD`. Chosen by
/// measurement on 1 Mbp partitions on a 2-core AMD EPYC: 8 and 16 are
/// within noise of each other, 4 gives up part of the gain.
pub(crate) const LOOKUP_AHEAD: usize = 8;

/// The fused table cannot tell `partitions` apart: the tag word has no
/// room for that many partition ids next to the restmer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooManyPartitions {
    /// Partitions asked for.
    pub partitions: usize,
    /// The most the geometry's spare tag bits can name.
    pub max: usize,
}

impl std::fmt::Display for TooManyPartitions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} partitions exceed the {} the fused filter's tag word can name at this k and m",
            self.partitions, self.max
        )
    }
}

impl std::error::Error for TooManyPartitions {}

/// Tag bits taken by the restmer: `2 (k − m)`, truncated to the 32-bit
/// tag word exactly as [`PreSeedingFilter`]'s tag truncates it.
fn restmer_bits(config: &FilterConfig) -> u32 {
    (2 * (config.k - config.m)).min(32) as u32
}

/// Tag bits needed to name `partitions` partitions beside the restmer.
///
/// # Errors
///
/// [`TooManyPartitions`] when they do not fit the 32-bit tag word.
pub(crate) fn part_bits(
    config: &FilterConfig,
    partitions: usize,
) -> Result<u32, TooManyPartitions> {
    let bits = match partitions {
        0 | 1 => 0,
        n => usize::BITS - (n - 1).leading_zeros(),
    };
    let spare = 32 - restmer_bits(config);
    if bits > spare {
        return Err(TooManyPartitions {
            partitions,
            max: 1usize << spare,
        });
    }
    Ok(bits)
}

/// The tables of [`place`].
pub(crate) struct Placed {
    /// Per m-mer: bucket start, then one count per partition; then the
    /// total row count.
    pub(crate) rows: Vec<u32>,
    /// `(restmer << part_bits) | partition` per occurrence.
    pub(crate) tag: Vec<u32>,
    /// Indicator per occurrence.
    pub(crate) data: Vec<SearchIndicator>,
}

/// Buckets up to this size are sorted in place by insertion; larger
/// ones (repeats) go through a scratch buffer and a merge sort.
const INSERTION_SORT_MAX: usize = 32;

/// Counting-sort placement of every k-mer occurrence of `parts`: count
/// per (m-mer, partition), prefix-sum into bucket starts, place each
/// partition's occurrences in (m-mer, position) order — a local counting
/// sort first, so the writes into the shared tables advance through them
/// monotonically instead of scattering — then stably sort each bucket by
/// tag word. The result is ordered by (m-mer, restmer, partition,
/// position).
pub(crate) fn place(parts: &[&PackedSeq], config: &FilterConfig, part_bits: u32) -> Placed {
    let (k, m) = (config.k, config.m);
    let rest = 2 * (k - m);
    let rest_mask = if rest >= 64 {
        u64::MAX
    } else {
        (1u64 << rest) - 1
    };
    let slots = 1usize << (2 * m);
    let width = parts.len() + 1;

    // 1. Count per (m-mer, partition), one partition at a time into a
    //    dense scratch.
    let mut rows = vec![0u32; slots * width + 1];
    let mut scratch = vec![0u32; slots];
    for (p, seq) in parts.iter().enumerate() {
        scratch.fill(0);
        for (_, code) in seq.kmers(k) {
            scratch[(code >> rest) as usize] += 1;
        }
        for (mm, &count) in scratch.iter().enumerate() {
            rows[mm * width + 1 + p] = count;
        }
    }
    // 2. Prefix sums: bucket starts, and a cursor per bucket.
    let mut total = 0u32;
    let mut cursor = vec![0u32; slots];
    for (mm, cur) in cursor.iter_mut().enumerate() {
        let row = &mut rows[mm * width..(mm + 1) * width];
        row[0] = total;
        *cur = total;
        total += row[1..].iter().sum::<u32>();
    }
    rows[slots * width] = total;

    // 3. Place, partition by partition.
    let n = total as usize;
    let mut tag = vec![0u32; n];
    let mut data = vec![SearchIndicator::EMPTY; n];
    let mut local: Vec<(u32, u32)> = Vec::new();
    for (p, seq) in parts.iter().enumerate() {
        let mut start = 0u32;
        for (mm, next) in scratch.iter_mut().enumerate() {
            *next = start;
            start += rows[mm * width + 1 + p];
        }
        local.clear();
        local.resize(start as usize, (0, 0));
        // The occurrence's start offset and group, stepped along with
        // the position instead of divided out of it.
        let (mut offset, mut group) = (0u32, 0u32);
        for (_, code) in seq.kmers(k) {
            let next = &mut scratch[(code >> rest) as usize];
            let key = ((code & rest_mask) as u32) << part_bits | p as u32;
            local[*next as usize] = (key, offset << 8 | group);
            *next += 1;
            offset += 1;
            if offset as usize == config.stride {
                offset = 0;
                group += 1;
                if group as usize == config.groups {
                    group = 0;
                }
            }
        }
        let mut rows_of_p = local.iter();
        for (mm, cur) in cursor.iter_mut().enumerate() {
            for _ in 0..rows[mm * width + 1 + p] {
                let &(key, at) = rows_of_p.next().expect("counted above");
                let row = *cur as usize;
                *cur += 1;
                tag[row] = key;
                data[row] = SearchIndicator {
                    start_mask: 1 << (at >> 8),
                    groups: 1 << (at & 0xff),
                };
            }
        }
    }
    drop((cursor, scratch, local));

    // 4. Stable sort of each bucket by tag word: equal tags (same restmer
    //    and partition) keep their placement order, which is position
    //    order.
    let mut big: Vec<(u32, SearchIndicator)> = Vec::new();
    for mm in 0..slots {
        let (lo, hi) = (rows[mm * width] as usize, rows[(mm + 1) * width] as usize);
        if hi - lo <= INSERTION_SORT_MAX {
            for i in lo + 1..hi {
                let (t, si) = (tag[i], data[i]);
                let mut j = i;
                while j > lo && tag[j - 1] > t {
                    tag[j] = tag[j - 1];
                    data[j] = data[j - 1];
                    j -= 1;
                }
                tag[j] = t;
                data[j] = si;
            }
        } else if !tag[lo..hi].windows(2).all(|w| w[0] <= w[1]) {
            big.clear();
            big.extend(
                tag[lo..hi]
                    .iter()
                    .copied()
                    .zip(data[lo..hi].iter().copied()),
            );
            big.sort_by_key(|&(t, _)| t);
            for (i, &(t, si)) in big.iter().enumerate() {
                tag[lo + i] = t;
                data[lo + i] = si;
            }
        }
    }
    Placed { rows, tag, data }
}

/// A pivot that survived the pre-seeding filter in one partition: its
/// read offset and the OR of its occurrences' indicators there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Survivor {
    start_mask: u64,
    groups: u32,
    pivot: u32,
}

impl Survivor {
    /// A surviving pivot at read offset `pivot`.
    pub fn new(pivot: usize, si: SearchIndicator) -> Survivor {
        Survivor {
            start_mask: si.start_mask,
            groups: si.groups,
            pivot: pivot as u32,
        }
    }

    /// The pivot's read offset.
    pub fn pivot(&self) -> usize {
        self.pivot as usize
    }

    /// The pivot's search indicator in this partition.
    pub fn indicator(&self) -> SearchIndicator {
        SearchIndicator {
            start_mask: self.start_mask,
            groups: self.groups,
        }
    }
}

/// One partition's share of a tile probed through
/// [`FusedFilter::probe_tile`]: every read's surviving pivots, in pivot
/// order, and the [`FilterStats`] the partition's own filter would have
/// counted for looking up every pivot of that read.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartSurvivors {
    survivors: Vec<Survivor>,
    /// `ends[i]` closes read `i`'s run in `survivors`.
    ends: Vec<u32>,
    stats: Vec<FilterStats>,
}

impl PartSurvivors {
    /// Number of reads covered.
    pub fn reads(&self) -> usize {
        self.ends.len()
    }

    /// Read `i`'s surviving pivots and its per-read filter statistics.
    ///
    /// # Panics
    ///
    /// Panics if `i >= reads()`.
    pub fn read(&self, i: usize) -> (&[Survivor], &FilterStats) {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        (&self.survivors[lo..self.ends[i] as usize], &self.stats[i])
    }

    fn clear(&mut self) {
        self.survivors.clear();
        self.ends.clear();
        self.stats.clear();
    }
}

/// One m-mer's row: bucket bounds in the tag array and per-partition
/// counts.
struct Row<'a> {
    lo: usize,
    hi: usize,
    counts: &'a [u32],
}

/// The pre-seeding filter of a whole reference (see the module docs).
///
/// ```
/// use casa_genome::PackedSeq;
/// use casa_filter::{FilterConfig, FilterStats, FusedFilter, PreSeedingFilter};
///
/// let a = PackedSeq::from_ascii(b"ACGTACGTTTGGAACCAGTC")?;
/// let b = PackedSeq::from_ascii(b"TTTTGGGGCCCCAAAAGTAC")?;
/// let cfg = FilterConfig::small(6, 3);
/// let fused = FusedFilter::build(&[&a, &b], cfg).expect("two partitions fit");
/// let code = PackedSeq::from_ascii(b"GTACGT")?.kmer_code(0, 6).unwrap();
/// let mut stats = FilterStats::default();
/// // Partition 0 holds GTACGT (offset 2), partition 1 does not.
/// assert_eq!(
///     fused.lookup_code(0, code, &mut stats),
///     PreSeedingFilter::build(&a, cfg).lookup_code(code)
/// );
/// assert!(fused.lookup_code(1, code, &mut stats).is_empty());
/// # Ok::<(), casa_genome::ParseBaseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FusedFilter {
    config: FilterConfig,
    /// Tag bits holding the partition id.
    part_bits: u32,
    /// Per partition: the §5 packing of its own tag array.
    layouts: Vec<TagLayout>,
    /// Per m-mer: bucket start, one count per partition; then the total.
    rows: SliceStore<u32>,
    /// `(restmer << part_bits) | partition` per occurrence.
    tag: SliceStore<u32>,
    /// Search indicator per occurrence.
    data: IndicatorStore,
}

impl FusedFilter {
    /// Builds the fused table over `parts` (partition `i` is `parts[i]`).
    ///
    /// # Errors
    ///
    /// [`TooManyPartitions`] when the tag word cannot name every
    /// partition beside a restmer of this geometry.
    pub fn build(
        parts: &[&PackedSeq],
        config: FilterConfig,
    ) -> Result<FusedFilter, TooManyPartitions> {
        let bits = part_bits(&config, parts.len())?;
        let placed = place(parts, &config, bits);
        let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        Ok(FusedFilter {
            config,
            part_bits: bits,
            layouts: layouts_for(&config, &lens),
            rows: placed.rows.into(),
            tag: placed.tag.into(),
            data: placed.data.into(),
        })
    }

    /// The one-partition fused table holding `filter`'s rows, moved, not
    /// copied (only the mini index is re-laid out as rows). Lookups
    /// through it are identical to lookups through `filter`.
    pub fn from_filter(filter: PreSeedingFilter) -> FusedFilter {
        let (config, mini, tag, data, partition_len) = filter.into_tables();
        let mut rows = Vec::with_capacity(2 * mini.len() - 1);
        for w in mini.windows(2) {
            rows.push(w[0]);
            rows.push(w[1] - w[0]);
        }
        rows.push(mini[mini.len() - 1]);
        FusedFilter {
            config,
            part_bits: 0,
            layouts: layouts_for(&config, &[partition_len]),
            rows: rows.into(),
            tag,
            data,
        }
    }

    /// Reassembles a fused table from image sections — the zero-copy
    /// loading path. `data` uses the [`IndicatorStore`] wire encoding.
    /// Only the shapes and the first and last row are checked, so opening
    /// touches no more than two pages of the rows; rows are checked for
    /// consistency as they are read (see the module docs).
    ///
    /// Fails (typed message) when the tables disagree with each other,
    /// with `partition_lens`, or with the geometry.
    pub fn from_shared_parts(
        config: FilterConfig,
        partition_lens: &[usize],
        rows: SharedSlice<u32>,
        tag: SharedSlice<u32>,
        data: SharedSlice<u64>,
    ) -> Result<FusedFilter, &'static str> {
        let bits = part_bits(&config, partition_lens.len())
            .map_err(|_| "fused filter cannot name this many partitions")?;
        let width = partition_lens.len() + 1;
        let r = rows.as_slice();
        if r.len() != (1usize << (2 * config.m)) * width + 1 {
            return Err("fused filter rows have the wrong shape for m and the partition count");
        }
        let n = tag.as_slice().len();
        if r[0] != 0 || r[r.len() - 1] as usize != n {
            return Err("fused filter rows disagree with the tag row count");
        }
        if data.as_slice().len() != 2 * n {
            return Err("fused filter data array disagrees with the tag row count");
        }
        Ok(FusedFilter {
            config,
            part_bits: bits,
            layouts: layouts_for(&config, partition_lens),
            rows: rows.into(),
            tag: tag.into(),
            data: data.into(),
        })
    }

    /// The filter geometry.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.layouts.len()
    }

    /// The row array (the image writer persists it).
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The tag array.
    pub fn tag(&self) -> &[u32] {
        &self.tag
    }

    /// The data array in wire encoding (two `u64` words per record).
    pub fn data_words(&self) -> Vec<u64> {
        self.data.to_words()
    }

    /// Whether every table is backed by shared (mapped) storage.
    pub fn tables_shared(&self) -> bool {
        self.rows.is_shared() && self.tag.is_shared() && self.data.is_shared()
    }

    /// The indicator a row that cannot be trusted answers with: every
    /// start offset, every group.
    fn full_indicator(&self) -> SearchIndicator {
        let ones = |n: usize| if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        SearchIndicator {
            start_mask: ones(self.config.stride),
            groups: ones(self.config.groups) as u32,
        }
    }

    fn width(&self) -> usize {
        self.layouts.len() + 1
    }

    fn split(&self, code: u64) -> (usize, u32) {
        let rest = 2 * (self.config.k - self.config.m);
        let mask = if rest >= 64 {
            u64::MAX
        } else {
            (1u64 << rest) - 1
        };
        ((code >> rest) as usize, (code & mask) as u32)
    }

    fn part_mask(&self) -> u32 {
        (1u32 << self.part_bits) - 1
    }

    /// Row `mm`, or `None` when it is out of range or inconsistent.
    fn row(&self, mm: usize) -> Option<Row<'_>> {
        let width = self.width();
        let cells = self.rows.get(mm.checked_mul(width)?..)?.get(..=width)?;
        let (lo, hi) = (cells[0] as usize, cells[width] as usize);
        let counts = &cells[1..width];
        let size: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        (lo <= hi && hi <= self.tag.len() && size == (hi - lo) as u64).then_some(Row {
            lo,
            hi,
            counts,
        })
    }

    /// First row of `bucket` whose tag is at least `key`.
    fn lower_bound(&self, row: &Row<'_>, key: u32) -> usize {
        row.lo + self.tag[row.lo..row.hi].partition_point(|&t| t < key)
    }

    /// Looks up a k-mer code in partition `part` alone, counting into
    /// `stats` exactly what that partition's [`PreSeedingFilter`] counts
    /// for [`lookup_code`](PreSeedingFilter::lookup_code).
    ///
    /// # Panics
    ///
    /// Panics if `part >= partitions()`.
    pub fn lookup_code(&self, part: usize, code: u64, stats: &mut FilterStats) -> SearchIndicator {
        let (mm, restmer) = self.split(code);
        stats.lookups += 1;
        stats.mini_index_reads += 1;
        let Some(row) = self.row(mm) else {
            stats.hits += 1;
            return self.full_indicator();
        };
        let count = row.counts[part] as usize;
        if count > 0 {
            stats.tag_searches += 1;
            stats.tag_rows_enabled += count as u64;
            stats.tag_physical_rows += self.layouts[part].physical_rows(count) as u64;
        }
        let key = restmer << self.part_bits | part as u32;
        let mut si = SearchIndicator::EMPTY;
        let mut r = self.lower_bound(&row, key);
        while r < row.hi && self.tag[r] == key {
            stats.data_reads += 1;
            si.merge(self.data.get(r));
            r += 1;
        }
        if !si.is_empty() {
            stats.hits += 1;
        }
        si
    }

    /// Looks up only an m-mer in partition `part`: the OR of the
    /// indicators of every k-mer of that partition sharing it, counted as
    /// [`PreSeedingFilter::lookup_mmer_code`] counts it.
    ///
    /// # Panics
    ///
    /// Panics if `part >= partitions()`.
    pub fn lookup_mmer_code(
        &self,
        part: usize,
        mmer: u64,
        stats: &mut FilterStats,
    ) -> SearchIndicator {
        stats.lookups += 1;
        stats.mini_index_reads += 1;
        let Some(row) = self.row(mmer as usize) else {
            stats.hits += 1;
            return self.full_indicator();
        };
        let (mask, want) = (self.part_mask(), part as u32);
        let mut si = SearchIndicator::EMPTY;
        for r in row.lo..row.hi {
            if self.tag[r] & mask == want {
                stats.data_reads += 1;
                si.merge(self.data.get(r));
            }
        }
        if !si.is_empty() {
            stats.hits += 1;
        }
        si
    }

    /// Looks up every code of one read in partition `part`, in one
    /// software-pipelined pass (see [`probe_tile`](Self::probe_tile)),
    /// filling `out` (cleared first) with the surviving pivots. Same
    /// survivors and statistics as [`lookup_code`](Self::lookup_code) per
    /// code.
    pub fn survivors_into(
        &self,
        part: usize,
        codes: &[u64],
        out: &mut Vec<Survivor>,
        stats: &mut FilterStats,
    ) {
        out.clear();
        self.prime(codes);
        for (i, &code) in codes.iter().enumerate() {
            self.advance(codes, i);
            let si = self.lookup_code(part, code, stats);
            if !si.is_empty() {
                out.push(Survivor::new(i, si));
            }
        }
    }

    /// Probes every pivot of a tile **once** for all partitions.
    ///
    /// `codes` holds the tile's reads' rolling k-mer codes back to back
    /// and `ends[i]` closes read `i`'s codes. `out[p]` receives partition
    /// `p`'s surviving pivots and per-read [`FilterStats`], identical to
    /// what partition `p`'s own filter counts when every pivot of the read
    /// is looked up in it.
    ///
    /// A probe is a chain of dependent loads (row, then tag bucket, then
    /// data row) into tables far beyond L2, so alongside the probe of code
    /// `i` the loop prefetches the row of code `i + 2D` and, once that row
    /// is resident, the bucket's first tag and data rows of code `i + D`
    /// (`D = LOOKUP_AHEAD`). The pipeline runs straight across read
    /// boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != partitions()`, or if `ends` is not
    /// non-decreasing or overruns `codes`.
    pub fn probe_tile(&self, codes: &[u64], ends: &[usize], out: &mut [PartSurvivors]) {
        assert_eq!(out.len(), self.partitions(), "one output per partition");
        for part in out.iter_mut() {
            part.clear();
            part.ends.reserve(ends.len());
            part.stats.reserve(ends.len());
        }
        let mut tallies = vec![FilterStats::default(); out.len()];
        let mut tags = TagTally::new(&self.layouts);
        self.prime(codes);
        let mut start = 0;
        for &end in ends {
            for (i, &code) in codes[start..end].iter().enumerate() {
                self.advance(codes, start + i);
                self.probe(code, i, &mut tags, &mut tallies, out);
            }
            let pivots = (end - start) as u64;
            for (p, (part, tally)) in out.iter_mut().zip(&mut tallies).enumerate() {
                tally.lookups = pivots;
                tally.mini_index_reads = pivots;
                tags.take_into(p, tally);
                part.stats.push(std::mem::take(tally));
                part.ends.push(part.survivors.len() as u32);
            }
            start = end;
        }
    }

    /// One pivot's probe for every partition.
    fn probe(
        &self,
        code: u64,
        pivot: usize,
        tags: &mut TagTally,
        tallies: &mut [FilterStats],
        out: &mut [PartSurvivors],
    ) {
        let (mm, restmer) = self.split(code);
        let Some(row) = self.row(mm) else {
            let si = self.full_indicator();
            for (tally, part) in tallies.iter_mut().zip(out.iter_mut()) {
                tally.hits += 1;
                part.survivors.push(Survivor::new(pivot, si));
            }
            return;
        };
        tags.add(row.counts);
        if row.lo == row.hi {
            return;
        }
        let mask = self.part_mask();
        let mut r = self.lower_bound(&row, restmer << self.part_bits);
        // The restmer's rows, grouped by partition in ascending order.
        while r < row.hi && self.tag[r] >> self.part_bits == restmer {
            let key = self.tag[r];
            let mut si = SearchIndicator::EMPTY;
            let mut reads = 0;
            while r < row.hi && self.tag[r] == key {
                si.merge(self.data.get(r));
                reads += 1;
                r += 1;
            }
            let part = (key & mask) as usize;
            if let (Some(tally), Some(dst)) = (tallies.get_mut(part), out.get_mut(part)) {
                tally.data_reads += reads;
                if !si.is_empty() {
                    tally.hits += 1;
                    dst.survivors.push(Survivor::new(pivot, si));
                }
            }
        }
    }

    /// Primes the two prefetch stages with the first codes.
    fn prime(&self, codes: &[u64]) {
        for &code in codes.iter().take(2 * LOOKUP_AHEAD) {
            self.prefetch_row(code);
        }
        for &code in codes.iter().take(LOOKUP_AHEAD) {
            self.prefetch_bucket(code);
        }
    }

    /// Advances both prefetch stages past code `i`.
    fn advance(&self, codes: &[u64], i: usize) {
        if let Some(&ahead) = codes.get(i + 2 * LOOKUP_AHEAD) {
            self.prefetch_row(ahead);
        }
        if let Some(&ahead) = codes.get(i + LOOKUP_AHEAD) {
            self.prefetch_bucket(ahead);
        }
    }

    /// Pipeline stage 1: prefetch `code`'s row — both ends, as a row can
    /// straddle two cache lines.
    fn prefetch_row(&self, code: u64) {
        let at = self.split(code).0.saturating_mul(self.width());
        let rows = self.rows.as_slice();
        if let Some(cell) = rows.get(at) {
            casa_cam::kernel::prefetch(cell);
        }
        if let Some(cell) = rows.get(at.saturating_add(self.width())) {
            casa_cam::kernel::prefetch(cell);
        }
    }

    /// Pipeline stage 2: read `code`'s (now resident) bucket bounds and
    /// prefetch both ends of its tag bucket and its first data row.
    fn prefetch_bucket(&self, code: u64) {
        let at = self.split(code).0.saturating_mul(self.width());
        let (rows, tag) = (self.rows.as_slice(), self.tag.as_slice());
        if let (Some(&lo), Some(&hi)) = (rows.get(at), rows.get(at.saturating_add(self.width()))) {
            if lo < hi {
                let (lo, hi) = (lo as usize, hi as usize);
                if let Some(t) = tag.get(lo) {
                    casa_cam::kernel::prefetch(t);
                }
                if let Some(t) = tag.get(hi - 1) {
                    casa_cam::kernel::prefetch(t);
                }
                self.data.prefetch(lo);
            }
        }
    }

    /// Injects seeded data-array corruption into partition `part`'s rows
    /// and returns the flipped rows, numbered partition-locally: the same
    /// sites, the same bits and the same occurrences
    /// [`PreSeedingFilter::inject_faults`] picks on that partition's own
    /// filter.
    ///
    /// # Panics
    ///
    /// Panics if `part >= partitions()`.
    pub fn inject_faults(&mut self, part: usize, model: &FilterFaultModel) -> FilterFaultReport {
        let mut report = FilterFaultReport::default();
        if model.flip_rate <= 0.0 {
            return report;
        }
        let width = self.width();
        let slots = (self.rows.len() - 1) / width;
        let local_rows: u64 = (0..slots)
            .map(|mm| u64::from(self.rows[mm * width + 1 + part]))
            .sum();
        let hash = |row: u64| site_hash(model.seed, &[DOMAIN_FILTER_FLIP, row]);
        report.rows = (0..local_rows)
            .filter(|&row| coin(hash(row), model.flip_rate))
            .map(|row| row as u32)
            .collect();
        if report.rows.is_empty() {
            return report;
        }
        let stride = self.config.stride as u64;
        let (mask, want) = (self.part_mask(), part as u32);
        let tag = self.tag.as_slice();
        let data = self.data.to_mut();
        let mut sites = report.rows.iter().copied().peekable();
        // Walk the m-mers with a running partition-local row number,
        // entering only buckets that hold a site.
        let mut local = 0u64;
        for mm in 0..slots {
            let Some(&site) = sites.peek() else { break };
            let count = u64::from(self.rows[mm * width + 1 + part]);
            if u64::from(site) < local + count {
                let (lo, hi) = (
                    self.rows[mm * width] as usize,
                    self.rows[(mm + 1) * width] as usize,
                );
                let mut rank = local;
                for r in lo..hi.min(tag.len()) {
                    if tag[r] & mask != want {
                        continue;
                    }
                    while sites.next_if(|&s| u64::from(s) == rank).is_some() {
                        let bit = (hash(rank) >> 32) % stride;
                        data[r].start_mask ^= 1 << bit;
                    }
                    rank += 1;
                }
            }
            local += count;
        }
        report
    }
}

/// The tag-side [`FilterStats`] of the read being probed, per partition,
/// as parallel arrays so a pivot's update is one vectorisable pass over
/// its row's counts.
struct TagTally {
    /// Σ count: `tag_rows_enabled`.
    enabled: Vec<u64>,
    /// Pivots with a non-empty bucket: `tag_searches`.
    searched: Vec<u64>,
    /// Σ (count − gap) over buckets wider than the §5 address gap, so
    /// `tag_physical_rows = enabled − excess` (the min of count and gap).
    excess: Vec<u64>,
    /// Each partition's address gap.
    gaps: Vec<u32>,
    /// The smallest gap: only a wider bucket can have excess.
    min_gap: u32,
}

impl TagTally {
    fn new(layouts: &[TagLayout]) -> TagTally {
        let gaps: Vec<u32> = layouts
            .iter()
            .map(|l| u32::try_from(l.address_gap).unwrap_or(u32::MAX))
            .collect();
        let n = gaps.len();
        TagTally {
            enabled: vec![0; n],
            searched: vec![0; n],
            excess: vec![0; n],
            min_gap: gaps.iter().copied().min().unwrap_or(u32::MAX),
            gaps,
        }
    }

    /// One pivot's row counts, one per partition.
    fn add(&mut self, counts: &[u32]) {
        let n = counts.len();
        let (enabled, searched) = (&mut self.enabled[..n], &mut self.searched[..n]);
        let mut wide = false;
        for i in 0..n {
            let c = counts[i];
            enabled[i] += u64::from(c);
            searched[i] += u64::from(c != 0);
            wide |= c > self.min_gap;
        }
        if wide {
            for ((excess, &c), &gap) in self.excess.iter_mut().zip(counts).zip(&self.gaps) {
                *excess += u64::from(c.saturating_sub(gap));
            }
        }
    }

    /// Moves partition `p`'s counters into `stats` and zeroes them.
    fn take_into(&mut self, p: usize, stats: &mut FilterStats) {
        let enabled = std::mem::take(&mut self.enabled[p]);
        stats.tag_rows_enabled = enabled;
        stats.tag_searches = std::mem::take(&mut self.searched[p]);
        stats.tag_physical_rows = enabled - std::mem::take(&mut self.excess[p]);
    }
}

/// Each partition's §5 tag packing, sized by its k-mer count.
fn layouts_for(config: &FilterConfig, lens: &[usize]) -> Vec<TagLayout> {
    lens.iter()
        .map(|&len| TagLayout::paper((len + 1).saturating_sub(config.k).max(1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::Base;
    use proptest::prelude::*;

    fn seq(codes: &[u8]) -> PackedSeq {
        codes.iter().map(|&c| Base::from_code(c)).collect()
    }

    /// Partition `p`'s rows of `fused` in fused order, as (restmer,
    /// indicator) pairs.
    fn local_rows(fused: &FusedFilter, p: usize) -> Vec<(u32, SearchIndicator)> {
        let mask = fused.part_mask();
        (0..fused.tag.len())
            .filter(|&r| (fused.tag[r] & mask) as usize == p)
            .map(|r| (fused.tag[r] >> fused.part_bits, fused.data.get(r)))
            .collect()
    }

    /// A partition's own filter rows, as (restmer, indicator) pairs.
    fn oracle_rows(filter: &PreSeedingFilter) -> Vec<(u32, SearchIndicator)> {
        let words = filter.data_words();
        filter
            .tag()
            .iter()
            .zip(words.chunks_exact(2))
            .map(|(&t, w)| {
                let si = SearchIndicator {
                    start_mask: w[0],
                    groups: w[1] as u32,
                };
                (t, si)
            })
            .collect()
    }

    /// Codes worth probing: every k-mer of every partition (present in
    /// some, absent in others), the first and last m-mer rows, and codes
    /// no partition holds.
    fn probe_codes(parts: &[PackedSeq], cfg: &FilterConfig, extra: &[u64]) -> Vec<u64> {
        let top = (1u64 << (2 * cfg.k)) - 1;
        let mut codes: Vec<u64> = parts
            .iter()
            .flat_map(|p| p.kmers(cfg.k).map(|(_, c)| c))
            .collect();
        codes.extend([0, 1, top, top - 1]);
        codes.extend(extra.iter().map(|&c| c & top));
        codes
    }

    /// Checks the fused table against each partition's own filter:
    /// row-for-row agreement, every lookup's indicator and statistics,
    /// the m-mer lookups, a tile of reads through the stage, and the
    /// filter fault sites.
    fn check_against_oracle(
        parts: &[PackedSeq],
        cfg: FilterConfig,
        extra: &[u64],
        fault_seed: u64,
    ) {
        let refs: Vec<&PackedSeq> = parts.iter().collect();
        let fused = FusedFilter::build(&refs, cfg).expect("fits");
        let codes = probe_codes(parts, &cfg, extra);

        // A tile: reads cut from the partitions and from the codes, plus
        // reads too short to hold a k-mer.
        let reads: Vec<PackedSeq> = parts
            .iter()
            .filter(|p| p.len() >= 4)
            .map(|p| p.subseq(p.len() / 4, p.len() / 2))
            .chain([
                seq(&[0; 3]),
                seq(&[3; 40]),
                seq(&[1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]),
            ])
            .collect();
        let mut tile_codes = Vec::new();
        let mut ends = Vec::new();
        for r in &reads {
            tile_codes.extend(r.kmers(cfg.k).map(|(_, c)| c));
            ends.push(tile_codes.len());
        }
        let mut staged = vec![PartSurvivors::default(); parts.len()];
        fused.probe_tile(&tile_codes, &ends, &mut staged);

        for (p, part) in parts.iter().enumerate() {
            let mut oracle = PreSeedingFilter::build(part, cfg);
            // Both tables come from one placement, so pin the order
            // against a plain sort: (m-mer, restmer, position).
            let mut naive: Vec<(u64, usize)> = part.kmers(cfg.k).map(|(x, c)| (c, x)).collect();
            naive.sort_unstable();
            let rest_mask = (1u64 << (2 * (cfg.k - cfg.m))) - 1;
            let naive: Vec<(u32, SearchIndicator)> = naive
                .into_iter()
                .map(|(c, x)| {
                    let si = SearchIndicator::of_occurrence(x, cfg.stride, cfg.groups);
                    ((c & rest_mask) as u32, si)
                })
                .collect();
            assert_eq!(oracle_rows(&oracle), naive, "partition {p} row order");
            assert_eq!(
                local_rows(&fused, p),
                oracle_rows(&oracle),
                "partition {p} rows"
            );

            let mut stats = FilterStats::default();
            for &code in &codes {
                let want = oracle.lookup_code(code);
                assert_eq!(
                    fused.lookup_code(p, code, &mut stats),
                    want,
                    "partition {p} code {code}"
                );
            }
            assert_eq!(stats, oracle.stats(), "partition {p} lookup stats");

            oracle.reset_stats();
            let mut stats = FilterStats::default();
            for &code in &codes {
                let mmer = code >> (2 * (cfg.k - cfg.m));
                assert_eq!(
                    fused.lookup_mmer_code(p, mmer, &mut stats),
                    oracle.lookup_mmer_code(mmer)
                );
            }
            assert_eq!(stats, oracle.stats(), "partition {p} m-mer stats");

            let mut indicators = Vec::new();
            for (i, r) in reads.iter().enumerate() {
                oracle.reset_stats();
                let own: Vec<u64> = r.kmers(cfg.k).map(|(_, c)| c).collect();
                oracle.lookup_codes_into(&own, &mut indicators);
                let want: Vec<Survivor> = indicators
                    .iter()
                    .enumerate()
                    .filter(|(_, si)| !si.is_empty())
                    .map(|(pivot, &si)| Survivor::new(pivot, si))
                    .collect();
                let (survivors, stats) = staged[p].read(i);
                assert_eq!(survivors, &want[..], "partition {p} read {i} survivors");
                assert_eq!(stats, &oracle.stats(), "partition {p} read {i} stats");
                let mut alone = Vec::new();
                let mut stats = FilterStats::default();
                fused.survivors_into(p, &own, &mut alone, &mut stats);
                assert_eq!(
                    alone, want,
                    "partition {p} read {i} per-partition survivors"
                );
                assert_eq!(
                    stats,
                    oracle.stats(),
                    "partition {p} read {i} per-partition stats"
                );
            }

            // The same model flips the same partition-local rows, the
            // same bits, and leaves the other partitions alone.
            let model = FilterFaultModel {
                seed: fault_seed,
                flip_rate: 0.05,
            };
            let mut faulty_oracle = PreSeedingFilter::build(part, cfg);
            let mut faulty = fused.clone();
            assert_eq!(
                faulty.inject_faults(p, &model),
                faulty_oracle.inject_faults(&model)
            );
            assert_eq!(
                local_rows(&faulty, p),
                oracle_rows(&faulty_oracle),
                "partition {p} faulty rows"
            );
            for q in (0..parts.len()).filter(|&q| q != p) {
                assert_eq!(
                    local_rows(&faulty, q),
                    local_rows(&fused, q),
                    "partition {q} untouched"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The fused table agrees with every partition's own filter on
        /// 1, 2 and 8 partitions, one of them repeat-heavy (mostly
        /// poly-A), at two geometries.
        #[test]
        fn fused_table_matches_per_partition_filters(
            (shape, poly, geometry) in (0usize..3, 0usize..8, 0usize..2),
            seqs in prop::collection::vec(prop::collection::vec(0u8..4, 0..220), 1..9),
            extra in prop::collection::vec(0u64..u64::MAX, 0..20),
            fault_seed in 0u64..1_000,
        ) {
            let n = [1, 2, 8][shape].min(seqs.len());
            let mut parts: Vec<PackedSeq> = seqs[..n].iter().map(|c| seq(c)).collect();
            let poly = poly % n;
            let len = parts[poly].len();
            let mut codes = vec![0u8; len];
            // A poly-A run with a few other bases near the end.
            for (i, c) in codes.iter_mut().enumerate().skip(len * 3 / 4) {
                *c = (i % 3) as u8;
            }
            parts[poly] = seq(&codes);
            let cfg = [FilterConfig::small(8, 4), FilterConfig::small(6, 3)][geometry];
            check_against_oracle(&parts, cfg, &extra, fault_seed);
        }
    }

    #[test]
    fn one_partition_table_from_a_filter_matches_a_built_one() {
        let part = casa_genome::synth::generate_reference(
            &casa_genome::synth::ReferenceProfile::human_like(),
            3_000,
            4,
        );
        let cfg = FilterConfig::small(8, 4);
        let built = FusedFilter::build(&[&part], cfg).unwrap();
        let moved = FusedFilter::from_filter(PreSeedingFilter::build(&part, cfg));
        assert_eq!(built.rows(), moved.rows());
        assert_eq!(built.tag(), moved.tag());
        assert_eq!(built.data_words(), moved.data_words());
    }

    #[test]
    fn partition_ids_must_fit_the_tag_word() {
        // k − m = 15: 30 restmer bits leave 2 for the partition id.
        let cfg = FilterConfig::new(16, 1, 8, 4);
        let a = seq(&[0, 1, 2, 3].repeat(10));
        assert!(FusedFilter::build(&[&a; 4], cfg).is_ok());
        assert_eq!(
            FusedFilter::build(&[&a; 5], cfg).unwrap_err(),
            TooManyPartitions {
                partitions: 5,
                max: 4
            }
        );
        // k − m = 16 fills the word: one partition only.
        let cfg = FilterConfig::new(17, 1, 8, 4);
        assert!(FusedFilter::build(&[&a], cfg).is_ok());
        assert!(FusedFilter::build(&[&a, &a], cfg).is_err());
    }

    /// A row whose counts or bounds are corrupted answers with the full
    /// indicator — never a panic, never a missed occurrence.
    #[test]
    fn inconsistent_rows_answer_with_the_full_indicator() {
        use casa_genome::SliceView;
        use std::sync::Arc;
        fn share<T: Copy + Send + Sync + 'static>(v: Vec<T>) -> SharedSlice<T> {
            SharedSlice::new(Arc::new(v) as Arc<dyn SliceView<T>>)
        }
        let a = seq(&[0, 1, 2, 3, 3, 2, 1, 0, 0, 2, 2, 1, 3, 1].repeat(6));
        let b = seq(&[2, 2, 1, 0, 3, 1].repeat(12));
        let cfg = FilterConfig::small(6, 3);
        let clean = FusedFilter::build(&[&a, &b], cfg).unwrap();
        let lens = [a.len(), b.len()];
        let codes: Vec<u64> = a.kmers(cfg.k).map(|(_, c)| c).collect();
        let full = clean.full_indicator();
        for word in 0..clean.rows().len() - 1 {
            for bit in [0, 5, 31] {
                let mut rows = clean.rows().to_vec();
                rows[word] ^= 1 << bit;
                let Ok(bad) = FusedFilter::from_shared_parts(
                    cfg,
                    &lens,
                    share(rows),
                    share(clean.tag().to_vec()),
                    share(clean.data_words()),
                ) else {
                    continue; // caught at load (first or last word)
                };
                let mut stats = FilterStats::default();
                let mut staged = vec![PartSurvivors::default(); 2];
                bad.probe_tile(&codes, &[codes.len()], &mut staged);
                for (pivot, &code) in codes.iter().enumerate() {
                    for (p, stage) in staged.iter().enumerate() {
                        let got = bad.lookup_code(p, code, &mut stats);
                        let want = clean.lookup_code(p, code, &mut FilterStats::default());
                        assert!(got == want || got == full, "word {word} bit {bit}");
                        let survived = stage.read(0).0.iter().find(|s| s.pivot() == pivot);
                        if !want.is_empty() {
                            let si = survived
                                .expect("an occurrence is never dropped")
                                .indicator();
                            assert!(si == want || si == full);
                        }
                    }
                }
            }
        }
    }
}
