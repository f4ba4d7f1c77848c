//! Labeled collections of samples with splits, summaries, and I/O.
//!
//! A [`Dataset`] is stored column-major: its [`ColumnStore`] holds one
//! contiguous `Vec<f64>` per Table-I event, the CPI column and the
//! label column, all of one length, next to the benchmark name table.
//! That is the layout the compiled engine, the trainer's split search
//! and the transfer statistics read, and the layout `SPDS` and `SPDC`
//! keep on disk, so decoders fill the columns in bulk
//! ([`Dataset::from_columns`]) and a warm load never builds rows.
//!
//! [`Sample`] stays the row value type: [`Dataset::sample`] and
//! [`Dataset::iter`] assemble rows on demand from the columns, and
//! [`Dataset::push`] scatters one into them. Nothing is cached, so a
//! dataset has exactly one copy of its data.

use crate::events::{EventId, N_EVENTS};
use crate::sample::Sample;
use crate::{DataError, Result};
use mathkit::describe::Summary;
use mathkit::matrix::Matrix;
use mathkit::sampling::permutation;
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Write};

/// The storage of a [`Dataset`]: one contiguous column per event, the
/// CPI (dependent-variable) column and the benchmark label column, all
/// of the same length.
///
/// Training-time inner loops (split search, node-model fitting) and the
/// compiled engine walk one event at a time across many samples; each
/// column is one `&[f64]` slice, so hot loops touch memory sequentially
/// and never allocate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStore {
    /// The CPI column.
    cpi: Vec<f64>,
    /// Event columns, indexed by [`EventId::index`].
    events: [Vec<f64>; N_EVENTS],
    /// Benchmark label per sample (an index into the dataset's name
    /// table).
    labels: Vec<u32>,
}

impl ColumnStore {
    fn with_capacity(n: usize) -> ColumnStore {
        ColumnStore {
            cpi: Vec::with_capacity(n),
            events: std::array::from_fn(|_| Vec::with_capacity(n)),
            labels: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, sample: &Sample, label: u32) {
        self.cpi.push(sample.cpi());
        for (col, &v) in self.events.iter_mut().zip(sample.densities()) {
            col.push(v);
        }
        self.labels.push(label);
    }

    /// Row `i` assembled from the columns.
    fn row(&self, i: usize) -> Sample {
        let mut sample = Sample::zeros(self.cpi[i]);
        for (d, col) in sample.densities_mut().iter_mut().zip(&self.events) {
            *d = col[i];
        }
        sample
    }

    /// A new store holding rows `rows`, in that order.
    fn gather(&self, rows: &[usize]) -> ColumnStore {
        fn pick<T: Copy>(col: &[T], rows: &[usize]) -> Vec<T> {
            rows.iter().map(|&i| col[i]).collect()
        }
        ColumnStore {
            cpi: pick(&self.cpi, rows),
            events: std::array::from_fn(|e| pick(&self.events[e], rows)),
            labels: pick(&self.labels, rows),
        }
    }

    /// The contiguous density column for one event.
    pub fn event(&self, event: EventId) -> &[f64] {
        &self.events[event.index()]
    }

    /// The contiguous CPI column.
    pub fn cpi(&self) -> &[f64] {
        &self.cpi
    }

    /// The benchmark label column.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Number of samples (length of every column).
    pub fn len(&self) -> usize {
        self.cpi.len()
    }

    /// True if the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.cpi.is_empty()
    }
}

/// A labeled dataset of observation intervals, stored column-major
/// (see [`ColumnStore`]).
///
/// Every sample carries a benchmark label (an index into the dataset's
/// benchmark name table), mirroring how the paper attributes each
/// 2M-instruction interval to the benchmark that produced it. The label
/// table makes per-benchmark profiling (Tables II and IV) and
/// instruction-count weighting possible.
///
/// # Examples
///
/// ```
/// use perfcounters::{Dataset, Sample};
///
/// let mut ds = Dataset::new();
/// let mcf = ds.add_benchmark("429.mcf");
/// ds.push(Sample::zeros(2.5), mcf);
/// assert_eq!(ds.len(), 1);
/// assert_eq!(ds.benchmark_name(mcf), Some("429.mcf"));
/// assert_eq!(ds.sample(0), Sample::zeros(2.5));
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Dataset {
    columns: ColumnStore,
    benchmarks: Vec<String>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Creates an empty dataset with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Dataset {
            columns: ColumnStore::with_capacity(n),
            benchmarks: Vec::new(),
        }
    }

    /// Rebuilds a dataset from raw parts: one sample per label (indexes
    /// into `benchmarks`), exactly as observable through
    /// [`Dataset::sample`], [`Dataset::label`], and
    /// [`Dataset::benchmark_names`].
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Parse`] when `samples` and `labels` differ in
    /// length, a label points past the name table, or the name table
    /// contains a duplicate (which [`Dataset::add_benchmark`] could never
    /// produce).
    pub fn from_parts(
        samples: Vec<Sample>,
        labels: Vec<u32>,
        benchmarks: Vec<String>,
    ) -> Result<Dataset> {
        check_row_count(samples.len(), labels.len())?;
        let mut columns = ColumnStore::with_capacity(samples.len());
        for (s, l) in samples.iter().zip(labels) {
            columns.push(s, l);
        }
        let ColumnStore {
            cpi,
            events,
            labels,
        } = columns;
        Dataset::from_columns(cpi, events, labels, benchmarks)
    }

    /// Builds a dataset from its columns: the CPI column, one column per
    /// event (indexed by [`EventId::index`]), the label column, and the
    /// benchmark name table. This is the constructor the binary
    /// decoders use to reproduce a dataset bit for bit without building
    /// rows.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Parse`] when the label column or an event
    /// column is not as long as the CPI column, a label points past the
    /// name table, or the name table contains a duplicate.
    pub fn from_columns(
        cpi: Vec<f64>,
        events: [Vec<f64>; N_EVENTS],
        labels: Vec<u32>,
        benchmarks: Vec<String>,
    ) -> Result<Dataset> {
        check_row_count(cpi.len(), labels.len())?;
        if let Some(e) = EventId::ALL
            .into_iter()
            .find(|e| events[e.index()].len() != cpi.len())
        {
            return Err(DataError::Parse(format!(
                "event column {} holds {} values for {} samples",
                e.short_name(),
                events[e.index()].len(),
                cpi.len()
            )));
        }
        let mut seen = HashSet::with_capacity(benchmarks.len());
        if let Some(name) = benchmarks.iter().find(|name| !seen.insert(name.as_str())) {
            return Err(DataError::Parse(format!("duplicate benchmark {name:?}")));
        }
        if let Some(bad) = labels.iter().find(|&&l| l as usize >= benchmarks.len()) {
            return Err(DataError::Parse(format!(
                "label {bad} out of range ({} benchmarks)",
                benchmarks.len()
            )));
        }
        Ok(Dataset {
            columns: ColumnStore {
                cpi,
                events,
                labels,
            },
            benchmarks,
        })
    }

    /// The column storage of this dataset.
    pub fn columns(&self) -> &ColumnStore {
        &self.columns
    }

    /// Borrow of one event's contiguous density column.
    pub fn event_column(&self, event: EventId) -> &[f64] {
        self.columns.event(event)
    }

    /// Borrow of the contiguous CPI column.
    pub fn cpi_column(&self) -> &[f64] {
        self.columns.cpi()
    }

    /// Registers a benchmark name, returning its label id. If the name is
    /// already registered, the existing id is returned.
    pub fn add_benchmark(&mut self, name: &str) -> u32 {
        if let Some(pos) = self.benchmarks.iter().position(|b| b == name) {
            return pos as u32;
        }
        self.benchmarks.push(name.to_owned());
        (self.benchmarks.len() - 1) as u32
    }

    /// Appends a sample with the given benchmark label, one value to
    /// each column.
    ///
    /// # Panics
    ///
    /// Panics if `label` does not refer to a registered benchmark. This
    /// is an invariant of the caller, not of the data: labels come from
    /// [`Dataset::add_benchmark`]. Untrusted input goes through
    /// [`Dataset::from_columns`] or [`Dataset::from_parts`], which
    /// return an error instead.
    pub fn push(&mut self, sample: Sample, label: u32) {
        assert!(
            (label as usize) < self.benchmarks.len(),
            "label {label} not registered ({} benchmarks)",
            self.benchmarks.len()
        );
        self.columns.push(&sample, label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Sample `i`, assembled from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> Sample {
        self.columns.row(i)
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> u32 {
        self.columns.labels[i]
    }

    /// Name of a benchmark label, or `None` if unregistered.
    pub fn benchmark_name(&self, label: u32) -> Option<&str> {
        self.benchmarks.get(label as usize).map(String::as_str)
    }

    /// All registered benchmark names, in label order.
    pub fn benchmark_names(&self) -> &[String] {
        &self.benchmarks
    }

    /// Number of registered benchmarks.
    pub fn benchmark_count(&self) -> usize {
        self.benchmarks.len()
    }

    /// Iterator over `(sample, label)` pairs, each sample assembled from
    /// the columns.
    pub fn iter(&self) -> impl Iterator<Item = (Sample, u32)> + '_ {
        (0..self.len()).map(|i| (self.columns.row(i), self.columns.labels[i]))
    }

    /// The dependent-variable vector (CPI of each sample). Thin copying
    /// wrapper over [`Dataset::cpi_column`].
    pub fn cpis(&self) -> Vec<f64> {
        self.cpi_column().to_vec()
    }

    /// The density column for one event. Thin copying wrapper over
    /// [`Dataset::event_column`].
    pub fn column(&self, event: EventId) -> Vec<f64> {
        self.event_column(event).to_vec()
    }

    /// The `n x N_EVENTS` feature matrix (no intercept column), filled
    /// from the columns.
    pub fn feature_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.len(), N_EVENTS);
        for e in EventId::ALL {
            for (r, &v) in self.event_column(e).iter().enumerate() {
                m[(r, e.index())] = v;
            }
        }
        m
    }

    /// Summary statistics of one event column.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InsufficientData`] if the dataset is empty.
    pub fn summary(&self, event: EventId) -> Result<Summary> {
        Summary::from_slice(self.event_column(event))
            .map_err(|_| DataError::InsufficientData("summary of empty dataset".into()))
    }

    /// Summary statistics of the CPI column.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InsufficientData`] if the dataset is empty.
    pub fn cpi_summary(&self) -> Result<Summary> {
        Summary::from_slice(self.cpi_column())
            .map_err(|_| DataError::InsufficientData("summary of empty dataset".into()))
    }

    /// A dataset of rows `rows` (in that order) sharing this dataset's
    /// name table.
    fn gather(&self, rows: &[usize]) -> Dataset {
        Dataset {
            columns: self.columns.gather(rows),
            benchmarks: self.benchmarks.clone(),
        }
    }

    /// Splits the dataset into two disjoint random subsets: the first with
    /// `ceil(fraction * len)` samples and the second with the remainder.
    /// Both keep the full benchmark name table, so labels stay valid.
    ///
    /// This is the sampling used in the paper's Section VI ("a training
    /// set representing 10% of the data" and an independent 10% test set).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn split_random<R: Rng + ?Sized>(&self, rng: &mut R, fraction: f64) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction {fraction} outside [0, 1]"
        );
        let n_first = (fraction * self.len() as f64).ceil() as usize;
        let order = permutation(rng, self.len());
        let (first, second) = order.split_at(n_first.min(order.len()));
        (self.gather(first), self.gather(second))
    }

    /// Returns the subset of samples belonging to one benchmark (the name
    /// table is preserved).
    pub fn filter_benchmark(&self, label: u32) -> Dataset {
        let rows: Vec<usize> = (0..self.len())
            .filter(|&i| self.columns.labels[i] == label)
            .collect();
        self.gather(&rows)
    }

    /// Appends all samples of `other`, remapping labels through benchmark
    /// names so datasets from different generators can be combined.
    pub fn merge(&mut self, other: &Dataset) {
        let remap: Vec<u32> = other
            .benchmarks
            .iter()
            .map(|name| self.add_benchmark(name))
            .collect();
        let cols = &mut self.columns;
        cols.cpi.extend_from_slice(&other.columns.cpi);
        for (col, theirs) in cols.events.iter_mut().zip(&other.columns.events) {
            col.extend_from_slice(theirs);
        }
        cols.labels
            .extend(other.columns.labels.iter().map(|&l| remap[l as usize]));
    }

    /// Checks that every registered benchmark name survives a
    /// delimiter-separated text format: commas or line breaks in a name
    /// would shift fields or split rows, silently corrupting the file
    /// in a way only discovered (at best) on re-read.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Unencodable`] naming the offending
    /// benchmark.
    pub(crate) fn check_encodable_names(&self, format: &str) -> Result<()> {
        for name in &self.benchmarks {
            if name.contains([',', '\n', '\r']) {
                return Err(DataError::Unencodable(format!(
                    "benchmark name {name:?} contains a delimiter and cannot be written as {format}"
                )));
            }
        }
        Ok(())
    }

    /// Writes the dataset as CSV: a header row, then one row per sample
    /// (`benchmark,cpi,<event columns>`).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Unencodable`] — before writing anything —
    /// when a benchmark name contains a comma or line break; propagates
    /// I/O errors from the writer.
    pub fn to_csv<W: Write>(&self, mut w: W) -> Result<()> {
        self.check_encodable_names("csv")?;
        write!(w, "benchmark,CPI")?;
        for e in EventId::ALL {
            write!(w, ",{}", e.short_name())?;
        }
        writeln!(w)?;
        let cols = &self.columns;
        for (i, (&cpi, &l)) in cols.cpi.iter().zip(&cols.labels).enumerate() {
            let name = self.benchmark_name(l).unwrap_or("?");
            write!(w, "{name},{cpi}")?;
            for col in &cols.events {
                write!(w, ",{}", col[i])?;
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Reads a dataset from CSV previously produced by [`Dataset::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Parse`] on malformed headers, rows with the
    /// wrong number of fields, or unparsable numbers; [`DataError::Io`] on
    /// reader failures.
    pub fn from_csv<R: BufRead>(r: R) -> Result<Dataset> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| DataError::Parse("empty csv".into()))??;
        let expected_fields = 2 + N_EVENTS;
        if header.split(',').count() != expected_fields {
            return Err(DataError::Parse(format!(
                "expected {expected_fields} header fields, got {}",
                header.split(',').count()
            )));
        }
        let mut ds = Dataset::new();
        // Name -> label, so a file with many benchmarks is not a
        // quadratic scan of the name table.
        let mut ids: HashMap<String, u32> = HashMap::new();
        for (lineno, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != expected_fields {
                return Err(DataError::Parse(format!(
                    "line {}: expected {expected_fields} fields, got {}",
                    lineno + 2,
                    fields.len()
                )));
            }
            let label = match ids.get(fields[0]) {
                Some(&label) => label,
                None => {
                    let label = ds.benchmarks.len() as u32;
                    ds.benchmarks.push(fields[0].to_owned());
                    ids.insert(fields[0].to_owned(), label);
                    label
                }
            };
            let parse = |s: &str| -> Result<f64> {
                s.parse::<f64>()
                    .map_err(|e| DataError::Parse(format!("line {}: {e}", lineno + 2)))
            };
            let cpi = parse(fields[1])?;
            let mut sample = Sample::zeros(cpi);
            for (e, field) in EventId::ALL.iter().zip(&fields[2..]) {
                sample.set(*e, parse(field)?);
            }
            ds.push(sample, label);
        }
        Ok(ds)
    }
}

/// The one length check both constructors share, with the message
/// [`Dataset::from_parts`] has always given.
fn check_row_count(samples: usize, labels: usize) -> Result<()> {
    if samples != labels {
        return Err(DataError::Parse(format!(
            "{samples} samples but {labels} labels"
        )));
    }
    Ok(())
}

impl Extend<(Sample, u32)> for Dataset {
    fn extend<T: IntoIterator<Item = (Sample, u32)>>(&mut self, iter: T) {
        for (s, l) in iter {
            self.push(s, l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let a = ds.add_benchmark("alpha");
        let b = ds.add_benchmark("beta");
        for i in 0..10 {
            let mut s = Sample::zeros(1.0 + i as f64 * 0.1);
            s.set(EventId::Load, 0.2 + i as f64 * 0.01);
            ds.push(s, if i % 2 == 0 { a } else { b });
        }
        ds
    }

    #[test]
    fn add_benchmark_dedupes() {
        let mut ds = Dataset::new();
        let a = ds.add_benchmark("x");
        let b = ds.add_benchmark("x");
        assert_eq!(a, b);
        assert_eq!(ds.benchmark_count(), 1);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn push_unregistered_label_panics() {
        let mut ds = Dataset::new();
        ds.push(Sample::zeros(1.0), 0);
    }

    #[test]
    fn from_parts_roundtrips_accessors() {
        let ds = tiny_dataset();
        let samples: Vec<Sample> = (0..ds.len()).map(|i| ds.sample(i)).collect();
        let labels: Vec<u32> = (0..ds.len()).map(|i| ds.label(i)).collect();
        let names = ds.benchmark_names().to_vec();
        let back = Dataset::from_parts(samples, labels, names).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn from_parts_rejects_malformed() {
        let s = vec![Sample::zeros(1.0)];
        assert!(Dataset::from_parts(s.clone(), vec![], vec!["a".into()]).is_err());
        assert!(Dataset::from_parts(s.clone(), vec![1], vec!["a".into()]).is_err());
        assert!(Dataset::from_parts(s, vec![0], vec!["a".into(), "a".into()]).is_err());
        assert!(Dataset::from_parts(vec![], vec![], vec![]).is_ok());
    }

    #[test]
    fn from_parts_names_first_duplicate_among_many() {
        // 100k distinct names, then a repeat of an early one: the check
        // is one hash-set pass, and it reports that name.
        let mut names: Vec<String> = (0..100_000).map(|i| format!("bench-{i}")).collect();
        names.push("bench-7".into());
        names.push("bench-3".into());
        let err = Dataset::from_parts(vec![], vec![], names.clone()).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"parse error: duplicate benchmark "bench-7""#
        );
        names.truncate(100_000);
        let ds = Dataset::from_parts(vec![Sample::zeros(1.0)], vec![99_999], names).unwrap();
        assert_eq!(ds.benchmark_name(ds.label(0)), Some("bench-99999"));
    }

    #[test]
    fn from_columns_rejects_ragged_columns() {
        let names = || vec!["a".to_string()];
        let events = |n: usize| -> [Vec<f64>; N_EVENTS] { std::array::from_fn(|_| vec![0.5; n]) };
        let ds = Dataset::from_columns(vec![1.0, 2.0], events(2), vec![0, 0], names()).unwrap();
        assert_eq!(ds.sample(1).cpi(), 2.0);
        assert_eq!(ds.sample(1).get(EventId::Simd), 0.5);

        let err = Dataset::from_columns(vec![1.0, 2.0], events(2), vec![0], names()).unwrap_err();
        assert_eq!(err.to_string(), "parse error: 2 samples but 1 labels");
        let mut ragged = events(2);
        ragged[EventId::L2Miss.index()].pop();
        let err = Dataset::from_columns(vec![1.0, 2.0], ragged, vec![0, 0], names()).unwrap_err();
        assert!(
            err.to_string().contains(EventId::L2Miss.short_name()),
            "{err}"
        );
        let err = Dataset::from_columns(vec![1.0], events(1), vec![1], names()).unwrap_err();
        assert!(err.to_string().contains("label 1 out of range"), "{err}");
        assert!(Dataset::from_columns(vec![], events(0), vec![], vec![]).is_ok());
    }

    #[test]
    fn columns_and_matrix() {
        let ds = tiny_dataset();
        let col = ds.column(EventId::Load);
        assert_eq!(col.len(), 10);
        assert!((col[3] - 0.23).abs() < 1e-12);
        let m = ds.feature_matrix();
        assert_eq!(m.shape(), (10, N_EVENTS));
        assert!((m[(3, EventId::Load.index())] - 0.23).abs() < 1e-12);
    }

    #[test]
    fn summaries() {
        let ds = tiny_dataset();
        let s = ds.cpi_summary().unwrap();
        assert_eq!(s.count(), 10);
        assert!((s.mean() - 1.45).abs() < 1e-12);
        assert!(Dataset::new().cpi_summary().is_err());
    }

    #[test]
    fn split_random_partitions() {
        let ds = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let (a, b) = ds.split_random(&mut rng, 0.3);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 7);
        // Same total CPI mass: it's a partition.
        let total: f64 = ds.cpis().iter().sum();
        let split_total: f64 = a.cpis().iter().chain(b.cpis().iter()).sum();
        assert!((total - split_total).abs() < 1e-9);
        // Name tables preserved.
        assert_eq!(a.benchmark_count(), 2);
        assert_eq!(b.benchmark_count(), 2);
    }

    #[test]
    fn split_random_extremes() {
        let ds = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let (a, b) = ds.split_random(&mut rng, 0.0);
        assert_eq!(a.len(), 0);
        assert_eq!(b.len(), 10);
        let (a, b) = ds.split_random(&mut rng, 1.0);
        assert_eq!(a.len(), 10);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn filter_benchmark_selects_only_matching() {
        let ds = tiny_dataset();
        let alpha = ds.filter_benchmark(0);
        assert_eq!(alpha.len(), 5);
        assert!(alpha.iter().all(|(_, l)| l == 0));
    }

    #[test]
    fn merge_remaps_labels() {
        let mut a = Dataset::new();
        let ax = a.add_benchmark("x");
        a.push(Sample::zeros(1.0), ax);

        let mut b = Dataset::new();
        let by = b.add_benchmark("y");
        let bx = b.add_benchmark("x");
        b.push(Sample::zeros(2.0), by);
        b.push(Sample::zeros(3.0), bx);

        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.benchmark_count(), 2);
        // The "x" sample from b must land on a's existing "x" label.
        assert_eq!(a.label(2), ax);
        assert_eq!(a.benchmark_name(a.label(1)), Some("y"));
    }

    #[test]
    fn csv_roundtrip() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        ds.to_csv(&mut buf).unwrap();
        let back = Dataset::from_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), ds.len());
        for i in 0..ds.len() {
            assert!((back.sample(i).cpi() - ds.sample(i).cpi()).abs() < 1e-12);
            assert_eq!(
                back.benchmark_name(back.label(i)),
                ds.benchmark_name(ds.label(i))
            );
        }
    }

    #[test]
    fn csv_rejects_malformed() {
        assert!(Dataset::from_csv("".as_bytes()).is_err());
        assert!(Dataset::from_csv("a,b,c\n".as_bytes()).is_err());
        let mut buf = Vec::new();
        tiny_dataset().to_csv(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("bad,row\n");
        assert!(Dataset::from_csv(text.as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_unencodable_names_before_writing() {
        let mut ds = Dataset::new();
        let l = ds.add_benchmark("bad,name");
        ds.push(Sample::zeros(1.0), l);
        let mut buf = Vec::new();
        let err = ds.to_csv(&mut buf).unwrap_err();
        assert!(matches!(err, DataError::Unencodable(_)), "{err}");
        assert!(buf.is_empty(), "refused write still produced bytes");

        let mut ds = Dataset::new();
        let l = ds.add_benchmark("line\nbreak");
        ds.push(Sample::zeros(1.0), l);
        assert!(ds.to_csv(&mut Vec::new()).is_err());
    }

    #[test]
    fn empty_dataset_csv_roundtrip() {
        let mut buf = Vec::new();
        Dataset::new().to_csv(&mut buf).unwrap();
        let back = Dataset::from_csv(buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.benchmark_count(), 0);
    }

    #[test]
    fn extend_trait() {
        let mut ds = Dataset::new();
        let l = ds.add_benchmark("z");
        ds.extend((0..5).map(|i| (Sample::zeros(i as f64), l)));
        assert_eq!(ds.len(), 5);
    }

    #[test]
    fn columnar_view_matches_row_accessors() {
        let ds = tiny_dataset();
        let cols = ds.columns();
        assert_eq!(cols.len(), ds.len());
        assert!(!cols.is_empty());
        for e in EventId::ALL {
            let col = cols.event(e);
            assert_eq!(col.len(), ds.len());
            for (i, &value) in col.iter().enumerate() {
                assert_eq!(value, ds.sample(i).get(e));
            }
        }
        for i in 0..ds.len() {
            assert_eq!(cols.cpi()[i], ds.sample(i).cpi());
        }
        // The convenience wrappers observe the same data.
        assert_eq!(ds.column(EventId::Load), ds.event_column(EventId::Load));
        assert_eq!(ds.cpis(), ds.cpi_column());
    }

    #[test]
    fn columnar_view_invalidated_by_mutation() {
        let mut ds = tiny_dataset();
        assert_eq!(ds.cpi_column().len(), 10);
        let label = ds.add_benchmark("gamma");
        ds.push(Sample::zeros(9.0), label);
        assert_eq!(ds.cpi_column().len(), 11);
        assert_eq!(ds.cpi_column()[10], 9.0);

        let mut merged = tiny_dataset();
        assert_eq!(merged.event_column(EventId::Load).len(), 10);
        merged.merge(&ds);
        assert_eq!(merged.event_column(EventId::Load).len(), 21);
    }

    #[test]
    fn clone_and_equality_ignore_column_cache() {
        let ds = tiny_dataset();
        let copy = ds.clone();
        assert_eq!(copy, ds);
        assert_eq!(copy.columns(), ds.columns());
        // Equality is over values: a differing label breaks it.
        let mut other = ds.clone();
        other.merge(&tiny_dataset());
        assert_ne!(other, ds);
    }

    #[test]
    fn empty_dataset_columns() {
        let ds = Dataset::new();
        assert!(ds.columns().is_empty());
        assert!(ds.cpi_column().is_empty());
        assert!(ds.event_column(EventId::Load).is_empty());
    }
}
