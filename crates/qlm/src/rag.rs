//! Retrieval-augmented generation over a simulated documentation corpus.
//!
//! The corpus mirrors the paper's two RAG datasets (§IV-C): (1) library
//! API documentation — a mixture of *current* (2.1) and *stale* (1.x/2.0)
//! pages, because "the documentation available for Qiskit is not up to
//! date" (§V-E); and (2) algorithm guides explaining the structure of
//! common quantum algorithms.
//!
//! Retrieval is real TF-IDF cosine ranking, and the effect on generation
//! is mediated entirely by *what was retrieved*: current API chunks
//! suppress the import/deprecation channels; a matching algorithm guide
//! nudges structural knowledge.
//!
//! # Index layout
//!
//! [`VectorStore::from_docs`] does all per-document work once:
//!
//! * a sorted vocabulary, so term ids run in string order and a
//!   document's terms in id order are its terms in string order;
//! * per document, a run of `(term id, tf·idf, idf)` postings in that
//!   order, and the norm of its TF-IDF vector summed in that order;
//! * the corpus share of current-version API pages.
//!
//! [`VectorStore::retrieve`] lower-cases and splits the query once, counts
//! its terms into a dense weight vector indexed by term id (terms outside
//! the vocabulary weigh nothing), and scores each document by walking its
//! postings.
//!
//! # Bit-identity
//!
//! Scores are the same `f64`s the textbook formulation over per-document
//! `term -> tf` maps produces: every term weight, norm and dot product is
//! computed with the same operations in the same order
//! (`dot += tfidf * qw * idf` over the document's terms in string order,
//! then `dot / norm`), and equal scores keep document order. A test-only
//! copy of that map-based store checks this on random corpora and
//! queries, score bits included.

use qcir::api::{ApiRegistry, Version};

/// What kind of documentation a chunk is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocKind {
    /// API reference page for a library version.
    Api {
        /// The version the page documents.
        version: Version,
    },
    /// An algorithm tutorial/guide.
    Guide,
}

/// One retrievable chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    /// Stable identifier.
    pub id: String,
    /// Chunk text.
    pub text: String,
    /// Kind and provenance.
    pub kind: DocKind,
    /// Topic key for guides (matches [`crate::spec::TaskSpec::topic`]).
    pub topic: Option<&'static str>,
}

/// Corpus construction options.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Fraction of API pages documenting *old* versions (the staleness the
    /// paper blames for RAG's weak results). 0.0 = all current.
    pub staleness: f64,
    /// Whether algorithm guides are included (dataset 2).
    pub include_guides: bool,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            staleness: 0.5,
            include_guides: true,
        }
    }
}

/// A TF-IDF vector store over the documentation corpus, indexed once at
/// construction (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct VectorStore {
    docs: Vec<Doc>,
    /// Every term of the corpus, sorted; a term's id is its index here.
    vocab: Vec<String>,
    /// Every document's terms, document after document, each document's
    /// in term order.
    postings: Vec<Posting>,
    /// Per document: its range of `postings` and its TF-IDF norm.
    rows: Vec<Row>,
    current_api_share: f64,
}

/// One term of one document.
#[derive(Debug, Clone, Copy)]
struct Posting {
    term: usize,
    /// Term frequency (count over document length) times `idf`.
    tfidf: f64,
    /// `ln((docs + 1) / (document frequency + 1)) + 1`.
    idf: f64,
}

#[derive(Debug, Clone, Copy)]
struct Row {
    start: usize,
    end: usize,
    /// Euclidean norm of the document's TF-IDF vector, summed in term
    /// order.
    norm: f64,
}

/// The terms of lower-cased text: ASCII alphanumeric runs of two or more
/// bytes.
fn terms(lower: &str) -> impl Iterator<Item = &str> {
    lower
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| t.len() >= 2)
}

/// `(term, count)` for each distinct term of `lower`, in term order, and
/// the number of terms.
fn term_counts(lower: &str) -> (Vec<(&str, usize)>, usize) {
    let mut all: Vec<&str> = terms(lower).collect();
    all.sort_unstable();
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for &t in &all {
        match counts.last_mut() {
            Some((last, n)) if *last == t => *n += 1,
            _ => counts.push((t, 1)),
        }
    }
    (counts, all.len())
}

impl VectorStore {
    /// Builds the standard corpus with the given configuration.
    pub fn build(config: &CorpusConfig) -> Self {
        let registry = ApiRegistry::standard();
        let mut docs = Vec::new();
        // API pages: one chunk per symbol per documented version. The
        // staleness knob controls how many old-version pages survive in
        // the corpus (weighted duplication of stale pages).
        let current = qcir::api::CURRENT;
        for &version in &qcir::api::RELEASES {
            let is_current = version == current;
            if is_current && config.staleness >= 1.0 {
                continue;
            }
            for (idx, symbol) in registry.symbols_at(version).into_iter().enumerate() {
                // Old-version pages survive in proportion to the staleness
                // knob (deterministic subsample so builds are reproducible).
                if !is_current {
                    let keep = ((idx * 7919 + 13) % 100) as f64 / 100.0 < config.staleness;
                    if !keep {
                        continue;
                    }
                }
                let text = format!(
                    "qasmlite {version} api reference gate {symbol} usage syntax example circuit import qasmlite {version}"
                );
                docs.push(Doc {
                    id: format!("api-{version}-{symbol}"),
                    text,
                    kind: DocKind::Api { version },
                    topic: None,
                });
            }
        }
        if config.include_guides {
            for (topic, text) in guide_pages() {
                docs.push(Doc {
                    id: format!("guide-{topic}"),
                    text: text.to_string(),
                    kind: DocKind::Guide,
                    topic: Some(topic),
                });
            }
        }
        Self::from_docs(docs)
    }

    /// Builds a store from explicit documents (used by ablations).
    pub fn from_docs(docs: Vec<Doc>) -> Self {
        let lowered: Vec<String> = docs.iter().map(|d| d.text.to_lowercase()).collect();
        let counted: Vec<_> = lowered.iter().map(|l| term_counts(l)).collect();
        let mut vocab: Vec<&str> = counted
            .iter()
            .flat_map(|(counts, _)| counts.iter().map(|&(t, _)| t))
            .collect();
        vocab.sort_unstable();
        vocab.dedup();

        // Pass 1: term ids, document frequencies and term frequencies.
        let mut df = vec![0usize; vocab.len()];
        let mut postings = Vec::new();
        let mut rows = Vec::with_capacity(docs.len());
        for (counts, len) in &counted {
            let len = (*len).max(1) as f64;
            let start = postings.len();
            for &(t, count) in counts {
                let id = vocab
                    .binary_search(&t)
                    .expect("every term is in the vocabulary");
                df[id] += 1;
                postings.push(Posting {
                    term: id,
                    tfidf: count as f64 / len,
                    idf: 0.0,
                });
            }
            rows.push(Row {
                start,
                end: postings.len(),
                norm: 0.0,
            });
        }
        // Pass 2: weights and norms.
        let n = docs.len() as f64;
        let idf: Vec<f64> = df
            .iter()
            .map(|&df| ((n + 1.0) / (df as f64 + 1.0)).ln() + 1.0)
            .collect();
        for row in &mut rows {
            let mut norm_sq = 0.0;
            for p in &mut postings[row.start..row.end] {
                p.idf = idf[p.term];
                p.tfidf *= p.idf;
                norm_sq += p.tfidf * p.tfidf;
            }
            row.norm = norm_sq.sqrt();
        }

        let api: Vec<Version> = docs
            .iter()
            .filter_map(|d| match d.kind {
                DocKind::Api { version } => Some(version),
                DocKind::Guide => None,
            })
            .collect();
        let current = api.iter().filter(|&&v| v == qcir::api::CURRENT).count();
        let current_api_share = if api.is_empty() {
            0.0
        } else {
            current as f64 / api.len() as f64
        };
        VectorStore {
            vocab: vocab.into_iter().map(str::to_string).collect(),
            docs,
            postings,
            rows,
            current_api_share,
        }
    }

    /// Number of chunks in the store.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// TF-IDF cosine retrieval of the top-`k` chunks for a query.
    pub fn retrieve(&self, query: &str, k: usize) -> Vec<&Doc> {
        self.top(query, k)
            .into_iter()
            .map(|(_, i)| &self.docs[i])
            .collect()
    }

    /// `(score, doc index)` of the top `k` documents that score above
    /// zero, best first; equal scores keep document order.
    fn top(&self, query: &str, k: usize) -> Vec<(f64, usize)> {
        let lower = query.to_lowercase();
        let mut weights = vec![0.0; self.vocab.len()];
        for t in terms(&lower) {
            if let Ok(id) = self.vocab.binary_search_by(|v| v.as_str().cmp(t)) {
                weights[id] += 1.0;
            }
        }
        let mut scored: Vec<(f64, usize)> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut dot = 0.0;
                for p in &self.postings[row.start..row.end] {
                    let qw = weights[p.term];
                    if qw > 0.0 {
                        dot += p.tfidf * qw * p.idf;
                    }
                }
                let score = if row.norm > 0.0 { dot / row.norm } else { 0.0 };
                (score, i)
            })
            // Scores are never negative, so dropping the zeros before the
            // stable sort keeps the order sorting everything would give.
            .filter(|&(score, _)| score > 0.0)
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// Fraction of API pages in the corpus documenting the current
    /// release. Retrieval over the API dataset returns chunks in this
    /// proportion (queries like "how do I apply cx" cannot distinguish
    /// version freshness, which is the paper's stale-docs problem).
    pub fn current_api_share(&self) -> f64 {
        self.current_api_share
    }
}

/// What retrieval contributed to a generation.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalEffect {
    /// Fraction of retrieved API chunks documenting the current version.
    pub current_api_fraction: f64,
    /// Whether a guide matching the task topic was retrieved.
    pub matched_guide: bool,
    /// Retrieved chunk ids (for transcripts).
    pub chunk_ids: Vec<String>,
}

/// Runs retrieval for a task prompt and summarizes its effect.
///
/// Two retrievals, matching the paper's two RAG datasets: the API dataset
/// contributes freshness (its corpus share of current pages — version
/// freshness is invisible to content queries), and the guide dataset is
/// queried with the actual prompt via TF-IDF.
pub fn retrieval_effect(
    store: &VectorStore,
    prompt: &str,
    topic: &str,
    k: usize,
) -> RetrievalEffect {
    let query = format!("{prompt} guide algorithm structure {topic}");
    let retrieved = store.retrieve(&query, k);
    let matched_guide = retrieved
        .iter()
        .any(|d| d.kind == DocKind::Guide && d.topic == Some(topic));
    RetrievalEffect {
        current_api_fraction: store.current_api_share(),
        matched_guide,
        chunk_ids: retrieved.iter().map(|d| d.id.clone()).collect(),
    }
}

/// The algorithm-guide pages (dataset 2 of §IV-C).
fn guide_pages() -> Vec<(&'static str, &'static str)> {
    vec![
        ("bell", "bell pair entanglement guide hadamard cx measure two qubits correlated outcomes"),
        ("ghz", "ghz state guide multi qubit entanglement hadamard chain of cx gates measure all"),
        ("superposition", "uniform superposition guide hadamard on every qubit equal probability sampling"),
        ("deutsch-jozsa", "deutsch jozsa algorithm guide oracle constant balanced ancilla minus state hadamard sandwich measure zero"),
        ("grover", "grover search algorithm guide amplitude amplification oracle phase flip diffuser iterations optimal sqrt"),
        ("qft", "quantum fourier transform guide controlled phase rotations swap qubits inverse qft"),
        ("phase-estimation", "quantum phase estimation guide counting qubits controlled unitary powers inverse fourier transform eigenphase"),
        ("teleportation", "quantum teleportation guide bell pair mid circuit measurement classical corrections conditional x z gates"),
        ("quantum-walk", "quantum walk guide coin qubit position register conditional increment decrement cycle interference"),
        ("shor", "shor order finding guide modular multiplication controlled swaps counting register inverse qft period"),
        ("simon", "simon algorithm guide hidden xor mask two to one oracle orthogonal constraints linear algebra"),
        ("annealing", "quantum annealing guide transverse field ising trotterized schedule adiabatic ground state zz coupling"),
        ("bernstein-vazirani", "bernstein vazirani guide secret mask phase kickback ancilla minus hadamard single query"),
        ("superdense", "superdense coding guide bell pair encode two classical bits pauli operations decode"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn corpus_builds_with_expected_composition() {
        let store = VectorStore::build(&CorpusConfig::default());
        assert!(store.len() > 40, "corpus size {}", store.len());
        let all_current = VectorStore::build(&CorpusConfig {
            staleness: 0.0,
            include_guides: false,
        });
        // Only 2.1 pages survive.
        assert!(all_current.len() < store.len());
    }

    #[test]
    fn retrieval_finds_topic_guides() {
        let store = VectorStore::build(&CorpusConfig::default());
        let effect = retrieval_effect(
            &store,
            "Generate a quantum program using Grover's algorithm to find a marked state",
            "grover",
            8,
        );
        assert!(
            effect.matched_guide,
            "grover guide should be retrieved: {:?}",
            effect.chunk_ids
        );
    }

    #[test]
    fn stale_corpus_retrieves_old_api_pages() {
        let stale = VectorStore::build(&CorpusConfig {
            staleness: 1.0,
            include_guides: false,
        });
        let effect = retrieval_effect(&stale, "how do i apply a cx gate", "bell", 6);
        assert_eq!(effect.current_api_fraction, 0.0);
    }

    #[test]
    fn fresh_corpus_retrieves_current_api_pages() {
        let fresh = VectorStore::build(&CorpusConfig {
            staleness: 0.0,
            include_guides: false,
        });
        let effect = retrieval_effect(&fresh, "how do i apply a cx gate", "bell", 6);
        assert_eq!(effect.current_api_fraction, 1.0);
    }

    #[test]
    fn retrieve_ranks_relevant_first() {
        let store = VectorStore::build(&CorpusConfig::default());
        let top = store.retrieve("teleportation bell pair classical corrections", 3);
        assert!(!top.is_empty());
        assert!(
            top.iter().any(|d| d.topic == Some("teleportation")),
            "top-3: {:?}",
            top.iter().map(|d| &d.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_query_retrieves_nothing() {
        let store = VectorStore::build(&CorpusConfig::default());
        assert!(store.retrieve("", 5).is_empty());
    }

    #[test]
    fn tokenizer_drops_punctuation_and_short_tokens() {
        let lower = "Apply CX(0, 1); a q[0]!".to_lowercase();
        let tokens: Vec<&str> = terms(&lower).collect();
        assert!(tokens.contains(&"cx"));
        assert!(!tokens.contains(&"a"));
    }

    /// The map-based store [`VectorStore`] replaced, kept as the oracle
    /// for its scores: per-document `term -> tf` maps, a `term -> df` map,
    /// and `idf` recomputed per term on every query.
    struct MapStore {
        docs: usize,
        df: BTreeMap<String, usize>,
        tf: Vec<BTreeMap<String, f64>>,
    }

    fn tokenize(text: &str) -> Vec<String> {
        text.to_lowercase()
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|t| t.len() >= 2)
            .map(str::to_string)
            .collect()
    }

    impl MapStore {
        fn new(docs: &[Doc]) -> Self {
            let mut df: BTreeMap<String, usize> = BTreeMap::new();
            let mut tf: Vec<BTreeMap<String, f64>> = Vec::with_capacity(docs.len());
            for doc in docs {
                let tokens = tokenize(&doc.text);
                let mut counts: BTreeMap<String, f64> = BTreeMap::new();
                for t in &tokens {
                    *counts.entry(t.clone()).or_insert(0.0) += 1.0;
                }
                let norm = tokens.len().max(1) as f64;
                for v in counts.values_mut() {
                    *v /= norm;
                }
                for term in counts.keys() {
                    *df.entry(term.clone()).or_insert(0) += 1;
                }
                tf.push(counts);
            }
            MapStore {
                docs: docs.len(),
                df,
                tf,
            }
        }

        fn idf(&self, term: &str) -> f64 {
            let n = self.docs as f64;
            let df = self.df.get(term).copied().unwrap_or(0) as f64;
            ((n + 1.0) / (df + 1.0)).ln() + 1.0
        }

        /// The retrieved `(score, doc index)` pairs, best first.
        fn retrieve(&self, query: &str, k: usize) -> Vec<(f64, usize)> {
            let q_tokens = tokenize(query);
            let mut q_tf: BTreeMap<String, f64> = BTreeMap::new();
            for t in &q_tokens {
                *q_tf.entry(t.clone()).or_insert(0.0) += 1.0;
            }
            let mut scored: Vec<(f64, usize)> = self
                .tf
                .iter()
                .enumerate()
                .map(|(i, doc_tf)| {
                    let mut dot = 0.0;
                    let mut d_norm = 0.0;
                    for (term, &w) in doc_tf {
                        let tfidf = w * self.idf(term);
                        d_norm += tfidf * tfidf;
                        if let Some(&qw) = q_tf.get(term) {
                            dot += tfidf * qw * self.idf(term);
                        }
                    }
                    let score = if d_norm > 0.0 {
                        dot / d_norm.sqrt()
                    } else {
                        0.0
                    };
                    (score, i)
                })
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            scored
                .into_iter()
                .take(k)
                .filter(|(s, _)| *s > 0.0)
                .collect()
        }
    }

    /// `(score bits, doc index)` of a retrieval.
    fn bits(top: Vec<(f64, usize)>) -> Vec<(u64, usize)> {
        top.into_iter().map(|(s, i)| (s.to_bits(), i)).collect()
    }

    /// Document words: repeats, case and punctuation variants, and
    /// one-letter tokens the tokenizer drops.
    const DOC_WORDS: [&str; 16] = [
        "cx",
        "CX",
        "h",
        "grover",
        "Grover's",
        "qft",
        "bell",
        "pair",
        "q[0];",
        "measure",
        "2.1",
        "qasmlite",
        "oracle",
        "x1",
        "zz-coupling",
        "guide",
    ];
    /// Query-only words that no document contains.
    const ABSENT_WORDS: [&str; 3] = ["absent", "zz9", "teleport"];

    fn text(words: &[usize]) -> String {
        let pool: Vec<&str> = DOC_WORDS.iter().chain(&ABSENT_WORDS).copied().collect();
        words.iter().map(|&w| pool[w]).collect::<Vec<_>>().join(" ")
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn index_matches_the_map_oracle_bit_for_bit(
            docs in prop::collection::vec(prop::collection::vec(0..DOC_WORDS.len(), 0..12), 0..10),
            query in prop::collection::vec(0..DOC_WORDS.len() + ABSENT_WORDS.len(), 0..8),
            k in 0usize..14,
        ) {
            let docs: Vec<Doc> = docs
                .iter()
                .enumerate()
                .map(|(i, words)| Doc {
                    id: format!("d{i}"),
                    text: text(words),
                    kind: DocKind::Guide,
                    topic: None,
                })
                .collect();
            let oracle_store = MapStore::new(&docs);
            let store = VectorStore::from_docs(docs);
            let query = text(&query);
            prop_assert_eq!(bits(store.top(&query, k)), bits(oracle_store.retrieve(&query, k)), "query {:?}", query);
        }
    }

    #[test]
    fn index_matches_the_map_oracle_on_every_ablation_corpus() {
        for staleness in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for include_guides in [false, true] {
                let store = VectorStore::build(&CorpusConfig {
                    staleness,
                    include_guides,
                });
                let oracle_store = MapStore::new(&store.docs);
                let queries = guide_pages()
                    .into_iter()
                    .map(|(topic, text)| format!("{text} guide algorithm structure {topic}"))
                    .chain(["how do i apply a cx gate".to_string(), String::new()]);
                for query in queries {
                    for k in [0, 1, 8, 200] {
                        assert_eq!(
                            bits(store.top(&query, k)),
                            bits(oracle_store.retrieve(&query, k)),
                            "staleness {staleness}, guides {include_guides}, k {k}: {query}"
                        );
                    }
                }
            }
        }
    }
}
