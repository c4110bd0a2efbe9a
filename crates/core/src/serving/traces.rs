//! Request traces: synthetic generators (uniform Poisson, bursty,
//! diurnal, shared-prefix) and a CSV loader for recorded logs, all
//! producing the same [`RequestSpec`] stream behind the [`TraceSource`]
//! seam.
//!
//! Every generator is a pure function of its configuration: arrivals are
//! drawn from one seeded generator (exponential gaps by inverse-CDF
//! sampling; non-homogeneous rates by Lewis–Shedler thinning), so a trace
//! is exactly reproducible per seed.

use super::prefix::SharedPrefix;
use crate::error::OptimusError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One request of a serving trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestSpec {
    /// Request id: a label for reports and error messages. Ids may
    /// repeat and need not follow trace order; the replay tells requests
    /// apart by their place in the trace, never by id.
    pub id: u32,
    /// Arrival time (s): finite and non-negative. A replay rejects any
    /// other with a typed error.
    pub arrival_s: f64,
    /// Prompt length (tokens).
    pub prompt_tokens: u32,
    /// Generation length (tokens).
    pub output_tokens: u32,
    /// SLO-class index into the scenario's class table
    /// ([`SloClass`](super::report::SloClass)); 0 — the default class —
    /// carries the engine's global TTFT/TPOT pair, so traces that never
    /// mention classes keep their PR 3 goodput accounting bit-for-bit.
    pub class: u32,
    /// Shared-prefix tag: the leading `prefix.tokens` prompt tokens are
    /// the system prompt named `prefix.id`, sharable across requests when
    /// the scenario enables
    /// [`prefix_caching`](super::scenario::Scenario::prefix_caching).
    /// `None` — the default — means the whole prompt is unique, which
    /// keeps every pre-prefix-cache replay untouched.
    pub prefix: Option<SharedPrefix>,
}

impl RequestSpec {
    /// A request in the default SLO class with a fully unique prompt.
    #[must_use]
    pub fn new(id: u32, arrival_s: f64, prompt_tokens: u32, output_tokens: u32) -> Self {
        Self {
            id,
            arrival_s,
            prompt_tokens,
            output_tokens,
            class: 0,
            prefix: None,
        }
    }

    /// Prompt plus output tokens: the request's KV length at completion.
    /// Widened before adding, so no pair of `u32` lengths overflows.
    pub(crate) fn full_tokens(&self) -> u64 {
        u64::from(self.prompt_tokens) + u64::from(self.output_tokens)
    }

    /// `(ttft, tpot)` of this request given the absolute instants of its
    /// `first` and last (`done`) tokens: the one scoring rule the report,
    /// the shedding gate and telemetry all apply.
    pub(crate) fn slo_times(&self, first: f64, done: f64) -> (f64, f64) {
        let tpot = (done - first) / f64::from((self.output_tokens - 1).max(1));
        (first - self.arrival_s, tpot)
    }

    /// The same request reassigned to SLO class `class`.
    #[must_use]
    pub fn in_class(mut self, class: u32) -> Self {
        self.class = class;
        self
    }

    /// The same request tagged as starting with `prefix_tokens` tokens of
    /// the shared system prompt `prefix_id`.
    #[must_use]
    pub fn with_prefix(mut self, prefix_id: u64, prefix_tokens: u32) -> Self {
        self.prefix = Some(SharedPrefix {
            id: prefix_id,
            tokens: prefix_tokens,
        });
        self
    }
}

/// Anything that can produce a serving trace: the seam between trace
/// provenance (synthetic, recorded, replayed) and the engine, which only
/// ever sees a `Vec<RequestSpec>`.
pub trait TraceSource {
    /// Materializes the trace, sorted by arrival time.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for degenerate configurations or
    /// malformed recorded data.
    fn requests(&self) -> Result<Vec<RequestSpec>, OptimusError>;
}

fn check_ranges(prompt_tokens: (u32, u32), output_tokens: (u32, u32)) -> Result<(), OptimusError> {
    for (name, (lo, hi)) in [("prompt", prompt_tokens), ("output", output_tokens)] {
        if lo == 0 || lo > hi {
            return Err(OptimusError::Serving {
                reason: format!("{name} range {lo}..={hi} must be non-empty and ≥ 1"),
            });
        }
    }
    Ok(())
}

/// Synthetic-trace generator configuration (uniform Poisson arrivals).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// RNG seed; traces are deterministic per seed.
    pub seed: u64,
    /// Number of requests.
    pub requests: u32,
    /// Poisson arrival rate (requests/s). `f64::INFINITY` collapses every
    /// arrival to t = 0 (the static burst used for degenerate-case
    /// validation against the static scheduler).
    pub arrival_rate_per_s: f64,
    /// Inclusive prompt-length range (tokens), sampled uniformly.
    pub prompt_tokens: (u32, u32),
    /// Inclusive output-length range (tokens), sampled uniformly.
    pub output_tokens: (u32, u32),
}

impl TraceConfig {
    /// A burst trace: `requests` identical I/O-shaped requests all
    /// arriving at t = 0 (the degenerate case that must reproduce the
    /// static scheduler's operating point).
    #[must_use]
    pub fn burst(requests: u32, prompt: u32, output: u32) -> Self {
        Self {
            seed: 0,
            requests,
            arrival_rate_per_s: f64::INFINITY,
            prompt_tokens: (prompt, prompt),
            output_tokens: (output, output),
        }
    }

    /// Synthesizes the trace: exponential inter-arrival gaps (inverse-CDF
    /// sampling) and uniform prompt/output lengths, all drawn from one
    /// seeded generator so the trace is a pure function of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for zero requests, an empty or
    /// zero-based token range, or a non-positive arrival rate.
    pub fn synthesize(&self) -> Result<Vec<RequestSpec>, OptimusError> {
        if self.requests == 0 {
            return Err(OptimusError::Serving {
                reason: "trace needs at least one request".to_owned(),
            });
        }
        check_ranges(self.prompt_tokens, self.output_tokens)?;
        if self.arrival_rate_per_s.is_nan() || self.arrival_rate_per_s <= 0.0 {
            return Err(OptimusError::Serving {
                reason: format!("arrival rate {} must be positive", self.arrival_rate_per_s),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut clock = 0.0f64;
        let mut trace = Vec::with_capacity(self.requests as usize);
        for id in 0..self.requests {
            if self.arrival_rate_per_s.is_finite() {
                // Exponential gap via inverse CDF; u ∈ [0, 1) keeps the
                // argument of ln strictly positive.
                let u: f64 = rng.gen();
                clock += -(1.0 - u).ln() / self.arrival_rate_per_s;
            }
            let prompt_tokens = rng.gen_range(self.prompt_tokens.0..=self.prompt_tokens.1);
            let output_tokens = rng.gen_range(self.output_tokens.0..=self.output_tokens.1);
            trace.push(RequestSpec::new(id, clock, prompt_tokens, output_tokens));
        }
        Ok(trace)
    }
}

impl TraceSource for TraceConfig {
    fn requests(&self) -> Result<Vec<RequestSpec>, OptimusError> {
        self.synthesize()
    }
}

/// Shared machinery for non-homogeneous Poisson generators: Lewis–Shedler
/// thinning against a `peak` rate, with lengths drawn from uniform ranges.
fn thinned_trace(
    seed: u64,
    requests: u32,
    peak_rate: f64,
    rate_at: impl Fn(f64) -> f64,
    prompt_tokens: (u32, u32),
    output_tokens: (u32, u32),
) -> Result<Vec<RequestSpec>, OptimusError> {
    if requests == 0 {
        return Err(OptimusError::Serving {
            reason: "trace needs at least one request".to_owned(),
        });
    }
    check_ranges(prompt_tokens, output_tokens)?;
    if !peak_rate.is_finite() || peak_rate <= 0.0 {
        return Err(OptimusError::Serving {
            reason: format!("peak arrival rate {peak_rate} must be finite and positive"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clock = 0.0f64;
    let mut trace = Vec::with_capacity(requests as usize);
    let mut id = 0u32;
    while id < requests {
        let u: f64 = rng.gen();
        clock += -(1.0 - u).ln() / peak_rate;
        let accept: f64 = rng.gen();
        if accept * peak_rate >= rate_at(clock) {
            continue; // thinned: candidate rejected at this instant
        }
        let prompt = rng.gen_range(prompt_tokens.0..=prompt_tokens.1);
        let output = rng.gen_range(output_tokens.0..=output_tokens.1);
        trace.push(RequestSpec::new(id, clock, prompt, output));
        id += 1;
    }
    Ok(trace)
}

/// Markov-modulated (on/off) Poisson trace: bursts of `burst_rate_per_s`
/// lasting `burst_s`, separated by `gap_s` of `base_rate_per_s` — the
/// flash-crowd arrival pattern that exposes load-balancing policy
/// differences at cluster scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstyTraceConfig {
    /// RNG seed; traces are deterministic per seed.
    pub seed: u64,
    /// Number of requests.
    pub requests: u32,
    /// Arrival rate between bursts (requests/s).
    pub base_rate_per_s: f64,
    /// Arrival rate inside a burst (requests/s); must be ≥ the base rate.
    pub burst_rate_per_s: f64,
    /// Burst duration (s).
    pub burst_s: f64,
    /// Quiet-period duration between bursts (s).
    pub gap_s: f64,
    /// Inclusive prompt-length range (tokens), sampled uniformly.
    pub prompt_tokens: (u32, u32),
    /// Inclusive output-length range (tokens), sampled uniformly.
    pub output_tokens: (u32, u32),
}

impl TraceSource for BurstyTraceConfig {
    fn requests(&self) -> Result<Vec<RequestSpec>, OptimusError> {
        if [
            self.base_rate_per_s,
            self.burst_rate_per_s,
            self.burst_s,
            self.gap_s,
        ]
        .iter()
        .any(|v| !v.is_finite() || *v <= 0.0)
        {
            return Err(OptimusError::Serving {
                reason: "bursty trace rates and durations must be finite and positive".to_owned(),
            });
        }
        if self.burst_rate_per_s < self.base_rate_per_s {
            return Err(OptimusError::Serving {
                reason: format!(
                    "burst rate {} below base rate {}",
                    self.burst_rate_per_s, self.base_rate_per_s
                ),
            });
        }
        let period = self.burst_s + self.gap_s;
        let (burst_s, base, peak) = (self.burst_s, self.base_rate_per_s, self.burst_rate_per_s);
        thinned_trace(
            self.seed,
            self.requests,
            peak,
            |t| if t % period < burst_s { peak } else { base },
            self.prompt_tokens,
            self.output_tokens,
        )
    }
}

/// Diurnal trace: a sinusoidal arrival rate
/// `mean · (1 + amplitude · sin(2πt / period))` mimicking the day/night
/// load swing of a production deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalTraceConfig {
    /// RNG seed; traces are deterministic per seed.
    pub seed: u64,
    /// Number of requests.
    pub requests: u32,
    /// Mean arrival rate (requests/s).
    pub mean_rate_per_s: f64,
    /// Relative swing around the mean, in `[0, 1)`.
    pub amplitude: f64,
    /// Period of one day-night cycle (s).
    pub period_s: f64,
    /// Inclusive prompt-length range (tokens), sampled uniformly.
    pub prompt_tokens: (u32, u32),
    /// Inclusive output-length range (tokens), sampled uniformly.
    pub output_tokens: (u32, u32),
}

impl TraceSource for DiurnalTraceConfig {
    fn requests(&self) -> Result<Vec<RequestSpec>, OptimusError> {
        if !self.mean_rate_per_s.is_finite() || self.mean_rate_per_s <= 0.0 {
            return Err(OptimusError::Serving {
                reason: format!(
                    "mean rate {} must be finite and positive",
                    self.mean_rate_per_s
                ),
            });
        }
        if !(0.0..1.0).contains(&self.amplitude) {
            return Err(OptimusError::Serving {
                reason: format!("amplitude {} must lie in [0, 1)", self.amplitude),
            });
        }
        if !self.period_s.is_finite() || self.period_s <= 0.0 {
            return Err(OptimusError::Serving {
                reason: format!("period {} s must be finite and positive", self.period_s),
            });
        }
        let peak = self.mean_rate_per_s * (1.0 + self.amplitude);
        let (mean, amp, period) = (self.mean_rate_per_s, self.amplitude, self.period_s);
        thinned_trace(
            self.seed,
            self.requests,
            peak,
            |t| mean * (1.0 + amp * (std::f64::consts::TAU * t / period).sin()),
            self.prompt_tokens,
            self.output_tokens,
        )
    }
}

/// Shared-prefix trace: seeded Poisson arrivals where a configurable
/// fraction of requests open with one of a few common system prompts,
/// assigned by a Zipf popularity law (rank-`k` prompt drawn with weight
/// `k^-s`) — the production traffic shape prefix caching exists for.
///
/// Each prefix id has one fixed length (drawn once per id from
/// `prefix_tokens`), so every request tagged with that id genuinely
/// shares the same leading tokens; the unique user turn appended after
/// it is drawn from `unique_prompt_tokens`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedPrefixTraceConfig {
    /// RNG seed; traces are deterministic per seed.
    pub seed: u64,
    /// Number of requests.
    pub requests: u32,
    /// Poisson arrival rate (requests/s); `f64::INFINITY` collapses every
    /// arrival to t = 0.
    pub arrival_rate_per_s: f64,
    /// Distinct shared system prompts.
    pub prefixes: u32,
    /// Inclusive length range (tokens) a system prompt is drawn from,
    /// once per prefix id.
    pub prefix_tokens: (u32, u32),
    /// Zipf exponent of prefix popularity (0 = uniform; ~1 = web-like
    /// skew where the top prompt dominates).
    pub zipf_s: f64,
    /// Fraction of requests carrying a shared prefix, in `[0, 1]`; the
    /// rest are fully unique prompts.
    pub share_fraction: f64,
    /// Inclusive range (tokens) of the unique prompt part appended after
    /// the shared prefix (the whole prompt for unshared requests).
    pub unique_prompt_tokens: (u32, u32),
    /// Inclusive output-length range (tokens), sampled uniformly.
    pub output_tokens: (u32, u32),
}

impl TraceSource for SharedPrefixTraceConfig {
    fn requests(&self) -> Result<Vec<RequestSpec>, OptimusError> {
        if self.requests == 0 {
            return Err(OptimusError::Serving {
                reason: "trace needs at least one request".to_owned(),
            });
        }
        check_ranges(self.unique_prompt_tokens, self.output_tokens)?;
        let (plo, phi) = self.prefix_tokens;
        if plo == 0 || plo > phi {
            return Err(OptimusError::Serving {
                reason: format!("prefix range {plo}..={phi} must be non-empty and ≥ 1"),
            });
        }
        if self.prefixes == 0 {
            return Err(OptimusError::Serving {
                reason: "shared-prefix trace needs at least one prefix".to_owned(),
            });
        }
        if self.arrival_rate_per_s.is_nan() || self.arrival_rate_per_s <= 0.0 {
            return Err(OptimusError::Serving {
                reason: format!("arrival rate {} must be positive", self.arrival_rate_per_s),
            });
        }
        if !(0.0..=1.0).contains(&self.share_fraction) {
            return Err(OptimusError::Serving {
                reason: format!("share fraction {} must lie in [0, 1]", self.share_fraction),
            });
        }
        if !self.zipf_s.is_finite() || self.zipf_s < 0.0 {
            return Err(OptimusError::Serving {
                reason: format!("Zipf exponent {} must be finite and ≥ 0", self.zipf_s),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        // One fixed length per system prompt: requests sharing an id
        // share identical leading tokens by construction.
        let prefix_len: Vec<u32> = (0..self.prefixes)
            .map(|_| rng.gen_range(plo..=phi))
            .collect();
        // Zipf CDF over prefix ranks (rank 1 = most popular = id 0).
        let weights: Vec<f64> = (1..=self.prefixes)
            .map(|k| f64::from(k).powf(-self.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut clock = 0.0f64;
        let mut trace = Vec::with_capacity(self.requests as usize);
        for id in 0..self.requests {
            if self.arrival_rate_per_s.is_finite() {
                let u: f64 = rng.gen();
                clock += -(1.0 - u).ln() / self.arrival_rate_per_s;
            }
            let shared: f64 = rng.gen();
            let unique = rng.gen_range(self.unique_prompt_tokens.0..=self.unique_prompt_tokens.1);
            let output = rng.gen_range(self.output_tokens.0..=self.output_tokens.1);
            if shared < self.share_fraction {
                // Inverse-CDF Zipf draw.
                let mut pick = (rng.gen::<f64>()) * total;
                let mut prefix_id = self.prefixes - 1;
                for (k, w) in weights.iter().enumerate() {
                    if pick < *w {
                        prefix_id = k as u32;
                        break;
                    }
                    pick -= w;
                }
                let p = prefix_len[prefix_id as usize];
                trace.push(
                    RequestSpec::new(id, clock, p + unique, output)
                        .with_prefix(u64::from(prefix_id), p),
                );
            } else {
                trace.push(RequestSpec::new(id, clock, unique, output));
            }
        }
        Ok(trace)
    }
}

/// A trace recorded as CSV text: one `arrival_s,prompt_tokens,output_tokens`
/// row per request (the schema of public LLM inference logs such as the
/// Azure traces), with an optional fourth `class` column carrying the
/// SLO-class index and optional fifth/sixth `prefix_id`/`prefix_tokens`
/// columns tagging a shared system prompt. Rows are re-sorted by arrival
/// and re-numbered.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvTrace {
    rows: Vec<RequestSpec>,
}

impl CsvTrace {
    /// Reads and parses a recorded CSV trace from `path` — the
    /// convenience entry for bundled trace files.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Io`] (typed, carrying the path) when the
    /// file cannot be read, and everything [`Self::parse`] returns for
    /// malformed content.
    pub fn from_path(path: impl AsRef<std::path::Path>) -> Result<Self, OptimusError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| OptimusError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// Parses CSV text. Blank lines and `#` comments are skipped; one
    /// header line naming the columns is tolerated. Every other row must
    /// hold three to six fields — a finite non-negative arrival time,
    /// positive prompt/output token counts, an optional SLO-class index
    /// (defaults to class 0 when absent), and an optional shared-prefix
    /// tag as a `prefix_id,prefix_tokens` pair (both columns or neither;
    /// `prefix_tokens` must be ≥ 1 and ≤ the row's prompt tokens).
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] naming the first malformed row
    /// (1-based line number) or for an empty trace.
    pub fn parse(text: &str) -> Result<Self, OptimusError> {
        let malformed = |line: usize, why: &str| OptimusError::Serving {
            reason: format!("CSV trace line {line}: {why}"),
        };
        let mut rows = Vec::new();
        let mut seen_row = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            let row = raw.trim();
            if row.is_empty() || row.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = row.split(',').map(str::trim).collect();
            if !(3..=6).contains(&fields.len()) {
                return Err(malformed(
                    line,
                    &format!("expected 3 to 6 fields, got {}", fields.len()),
                ));
            }
            if fields.len() == 5 {
                return Err(malformed(
                    line,
                    "a shared-prefix tag needs both prefix_id and prefix_tokens \
                     (5th and 6th fields)",
                ));
            }
            // Tolerate a single header row naming the columns as the
            // first non-skipped row (every field non-numeric; a row with
            // a bad field among numeric ones is malformed, not a header).
            let first = !std::mem::replace(&mut seen_row, true);
            if first && fields.iter().all(|f| f.parse::<f64>().is_err()) {
                continue;
            }
            let arrival_s: f64 = fields[0]
                .parse()
                .map_err(|_| malformed(line, &format!("bad arrival time {:?}", fields[0])))?;
            if !arrival_s.is_finite() || arrival_s < 0.0 {
                return Err(malformed(
                    line,
                    &format!("arrival {arrival_s} must be ≥ 0 and finite"),
                ));
            }
            let parse_tokens = |field: &str, name: &str| -> Result<u32, OptimusError> {
                let v: u32 = field
                    .parse()
                    .map_err(|_| malformed(line, &format!("bad {name} count {field:?}")))?;
                if v == 0 {
                    return Err(malformed(line, &format!("{name} tokens must be ≥ 1")));
                }
                Ok(v)
            };
            let class: u32 = match fields.get(3) {
                None => 0,
                Some(field) => field
                    .parse()
                    .map_err(|_| malformed(line, &format!("bad class index {field:?}")))?,
            };
            let prompt_tokens = parse_tokens(fields[1], "prompt")?;
            let prefix = match (fields.get(4), fields.get(5)) {
                (Some(id), Some(tokens)) => {
                    let id: u64 = id
                        .parse()
                        .map_err(|_| malformed(line, &format!("bad prefix id {id:?}")))?;
                    let tokens = parse_tokens(tokens, "prefix")?;
                    if tokens > prompt_tokens {
                        return Err(malformed(
                            line,
                            &format!(
                                "prefix spans {tokens} tokens but the prompt holds only \
                                 {prompt_tokens}"
                            ),
                        ));
                    }
                    Some(SharedPrefix { id, tokens })
                }
                _ => None,
            };
            rows.push(RequestSpec {
                id: 0, // renumbered after sorting
                arrival_s,
                prompt_tokens,
                output_tokens: parse_tokens(fields[2], "output")?,
                class,
                prefix,
            });
        }
        if rows.is_empty() {
            return Err(OptimusError::Serving {
                reason: "CSV trace holds no requests".to_owned(),
            });
        }
        rows.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        for (id, r) in rows.iter_mut().enumerate() {
            r.id = id as u32;
        }
        Ok(Self { rows })
    }
}

impl TraceSource for CsvTrace {
    fn requests(&self) -> Result<Vec<RequestSpec>, OptimusError> {
        Ok(self.rows.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_sorted() {
        let cfg = TraceConfig {
            seed: 42,
            requests: 64,
            arrival_rate_per_s: 10.0,
            prompt_tokens: (50, 300),
            output_tokens: (20, 200),
        };
        let a = cfg.synthesize().unwrap();
        let b = cfg.requests().unwrap();
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        assert!(a.iter().all(|r| (50..=300).contains(&r.prompt_tokens)));
        assert!(a.iter().all(|r| (20..=200).contains(&r.output_tokens)));
        let c = TraceConfig { seed: 43, ..cfg }.synthesize().unwrap();
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn burst_trace_arrives_at_zero() {
        let t = TraceConfig::burst(8, 200, 200).synthesize().unwrap();
        assert_eq!(t.len(), 8);
        assert!(t.iter().all(|r| r.arrival_s == 0.0));
        assert!(t
            .iter()
            .all(|r| r.prompt_tokens == 200 && r.output_tokens == 200));
    }

    #[test]
    fn degenerate_traces_are_typed_errors() {
        let bad = [
            TraceConfig {
                requests: 0,
                ..TraceConfig::burst(1, 10, 10)
            },
            TraceConfig {
                prompt_tokens: (0, 10),
                ..TraceConfig::burst(1, 10, 10)
            },
            TraceConfig {
                output_tokens: (20, 10),
                ..TraceConfig::burst(1, 10, 10)
            },
            TraceConfig {
                arrival_rate_per_s: 0.0,
                ..TraceConfig::burst(1, 10, 10)
            },
            TraceConfig {
                arrival_rate_per_s: -3.0,
                ..TraceConfig::burst(1, 10, 10)
            },
        ];
        for cfg in bad {
            assert!(matches!(
                cfg.synthesize(),
                Err(OptimusError::Serving { .. })
            ));
        }
    }

    fn bursty_base() -> BurstyTraceConfig {
        BurstyTraceConfig {
            seed: 7,
            requests: 256,
            base_rate_per_s: 2.0,
            burst_rate_per_s: 80.0,
            burst_s: 2.0,
            gap_s: 8.0,
            prompt_tokens: (32, 64),
            output_tokens: (8, 16),
        }
    }

    #[test]
    fn bursty_trace_is_deterministic_and_clustered() {
        let cfg = bursty_base();
        let a = cfg.requests().unwrap();
        assert_eq!(a, cfg.requests().unwrap());
        assert_eq!(a.len(), 256);
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        // Most mass lands inside bursts: the burst phase covers 20% of
        // each period but carries 80/2 = 40× the rate.
        let period = cfg.burst_s + cfg.gap_s;
        let in_burst = a
            .iter()
            .filter(|r| r.arrival_s % period < cfg.burst_s)
            .count();
        assert!(
            in_burst * 2 > a.len(),
            "bursts should dominate: {in_burst}/{}",
            a.len()
        );
    }

    #[test]
    fn bursty_rejects_inverted_rates() {
        let bad = BurstyTraceConfig {
            burst_rate_per_s: 1.0,
            ..bursty_base()
        };
        assert!(matches!(bad.requests(), Err(OptimusError::Serving { .. })));
        let bad = BurstyTraceConfig {
            gap_s: 0.0,
            ..bursty_base()
        };
        assert!(matches!(bad.requests(), Err(OptimusError::Serving { .. })));
    }

    #[test]
    fn diurnal_trace_modulates_rate() {
        let cfg = DiurnalTraceConfig {
            seed: 3,
            requests: 512,
            mean_rate_per_s: 10.0,
            amplitude: 0.9,
            period_s: 40.0,
            prompt_tokens: (32, 64),
            output_tokens: (8, 16),
        };
        let a = cfg.requests().unwrap();
        assert_eq!(a, cfg.requests().unwrap());
        assert_eq!(a.len(), 512);
        // The rising half-period (sin > 0) must receive more arrivals
        // than the falling one.
        let phase = |t: f64| (std::f64::consts::TAU * t / cfg.period_s).sin();
        let high = a.iter().filter(|r| phase(r.arrival_s) > 0.0).count();
        assert!(
            high * 3 > a.len() * 2,
            "peak half-cycle should dominate: {high}/{}",
            a.len()
        );
        let bad = DiurnalTraceConfig {
            amplitude: 1.5,
            ..cfg
        };
        assert!(matches!(bad.requests(), Err(OptimusError::Serving { .. })));
    }

    #[test]
    fn csv_roundtrip_sorts_and_renumbers() {
        let text = "# source: synthetic sample\n\
                    arrival_s,prompt_tokens,output_tokens\n\
                    # a comment\n\
                    2.5, 100, 20\n\
                    \n\
                    0.5, 64, 8\n\
                    1.0, 32, 4\n";
        let trace = CsvTrace::parse(text).unwrap().requests().unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].arrival_s, 0.5);
        assert_eq!(trace[2].prompt_tokens, 100);
        assert_eq!(
            trace.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(trace.iter().all(|r| r.class == 0), "3-column rows default");
    }

    #[test]
    fn csv_fourth_column_carries_slo_class() {
        let text = "arrival_s,prompt_tokens,output_tokens,class\n\
                    0.0, 64, 8, 1\n\
                    1.0, 32, 4\n\
                    2.0, 16, 2, 0\n";
        let trace = CsvTrace::parse(text).unwrap().requests().unwrap();
        assert_eq!(
            trace.iter().map(|r| r.class).collect::<Vec<_>>(),
            vec![1, 0, 0]
        );
        assert!(trace.iter().all(|r| r.prefix.is_none()));
    }

    #[test]
    fn csv_fifth_and_sixth_columns_carry_shared_prefix() {
        let text = "arrival_s,prompt_tokens,output_tokens,class,prefix_id,prefix_tokens\n\
                    0.0, 300, 8, 0, 7, 256\n\
                    1.0, 64, 4\n\
                    2.0, 280, 2, 1, 7, 256\n";
        let trace = CsvTrace::parse(text).unwrap().requests().unwrap();
        assert_eq!(trace[0].prefix, Some(SharedPrefix { id: 7, tokens: 256 }));
        assert_eq!(trace[1].prefix, None);
        assert_eq!(trace[2].prefix, trace[0].prefix);
        assert_eq!(trace[2].class, 1);
    }

    fn shared_base() -> SharedPrefixTraceConfig {
        SharedPrefixTraceConfig {
            seed: 11,
            requests: 400,
            arrival_rate_per_s: 50.0,
            prefixes: 4,
            prefix_tokens: (200, 400),
            zipf_s: 1.1,
            share_fraction: 0.8,
            unique_prompt_tokens: (16, 64),
            output_tokens: (8, 32),
        }
    }

    #[test]
    fn shared_prefix_trace_is_deterministic_and_consistent() {
        let cfg = shared_base();
        let a = cfg.requests().unwrap();
        assert_eq!(a, cfg.requests().unwrap());
        assert_eq!(a.len(), 400);
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        // Each prefix id has one fixed length, always inside the range
        // and always shorter than its request's prompt.
        let mut len_of = std::collections::BTreeMap::new();
        for r in &a {
            if let Some(p) = r.prefix {
                assert!((200..=400).contains(&p.tokens));
                assert!(p.tokens < r.prompt_tokens);
                assert_eq!(*len_of.entry(p.id).or_insert(p.tokens), p.tokens);
            } else {
                assert!((16..=64).contains(&r.prompt_tokens));
            }
        }
        assert!(!len_of.is_empty() && len_of.len() <= 4);
        // The share fraction lands near its target.
        let shared = a.iter().filter(|r| r.prefix.is_some()).count();
        assert!(
            (250..=380).contains(&shared),
            "~80% of 400 should share, got {shared}"
        );
    }

    #[test]
    fn shared_prefix_zipf_skews_popularity() {
        let a = shared_base().requests().unwrap();
        let count = |id: u64| {
            a.iter()
                .filter(|r| r.prefix.is_some_and(|p| p.id == id))
                .count()
        };
        // Rank 1 (id 0) must dominate the tail rank under s = 1.1.
        assert!(
            count(0) > 2 * count(3),
            "Zipf head {} vs tail {}",
            count(0),
            count(3)
        );
        // share_fraction 0 strips every prefix; 1.0 tags every request.
        let none = SharedPrefixTraceConfig {
            share_fraction: 0.0,
            ..shared_base()
        }
        .requests()
        .unwrap();
        assert!(none.iter().all(|r| r.prefix.is_none()));
        let all = SharedPrefixTraceConfig {
            share_fraction: 1.0,
            ..shared_base()
        }
        .requests()
        .unwrap();
        assert!(all.iter().all(|r| r.prefix.is_some()));
    }

    #[test]
    fn shared_prefix_trace_rejects_degenerate_configs() {
        let bad = [
            SharedPrefixTraceConfig {
                requests: 0,
                ..shared_base()
            },
            SharedPrefixTraceConfig {
                prefixes: 0,
                ..shared_base()
            },
            SharedPrefixTraceConfig {
                prefix_tokens: (0, 10),
                ..shared_base()
            },
            SharedPrefixTraceConfig {
                prefix_tokens: (20, 10),
                ..shared_base()
            },
            SharedPrefixTraceConfig {
                share_fraction: 1.5,
                ..shared_base()
            },
            SharedPrefixTraceConfig {
                zipf_s: f64::NAN,
                ..shared_base()
            },
            SharedPrefixTraceConfig {
                arrival_rate_per_s: 0.0,
                ..shared_base()
            },
            SharedPrefixTraceConfig {
                unique_prompt_tokens: (0, 4),
                ..shared_base()
            },
        ];
        for cfg in bad {
            assert!(
                matches!(cfg.requests(), Err(OptimusError::Serving { .. })),
                "{cfg:?} must be rejected"
            );
        }
    }

    #[test]
    fn from_path_round_trips_and_types_io_failures() {
        let dir = std::env::temp_dir().join("scd_perf_csv_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        std::fs::write(&path, "0.5,64,8\n1.5,32,4,1\n").unwrap();
        let trace = CsvTrace::from_path(&path).unwrap();
        assert_eq!(trace.requests().unwrap().len(), 2);
        assert_eq!(trace, CsvTrace::parse("0.5,64,8\n1.5,32,4,1\n").unwrap());

        match CsvTrace::from_path(dir.join("missing.csv")) {
            Err(OptimusError::Io { path, message }) => {
                assert!(path.ends_with("missing.csv"), "{path}");
                assert!(!message.is_empty());
            }
            other => panic!("expected a typed IO error, got {other:?}"),
        }
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        for (text, needle) in [
            ("1.0,100", "expected 3 to 6 fields"),
            ("1.0,100,20,0,7,64,extra", "expected 3 to 6 fields"),
            ("1.0,100,20,9,7", "needs both prefix_id and prefix_tokens"),
            ("abc,100,20\n1.0,1,1", "bad arrival"),
            ("-1.0,100,20", "must be ≥ 0"),
            ("1.0,zap,20", "bad prompt"),
            ("1.0,100,0", "output tokens must be ≥ 1"),
            ("1.0,100,20,interactive", "bad class index"),
            ("1.0,100,20,0,nine,64", "bad prefix id"),
            ("1.0,100,20,0,7,0", "prefix tokens must be ≥ 1"),
            ("1.0,100,20,0,7,101", "prompt holds only 100"),
            ("", "no requests"),
            ("# only a comment\n", "no requests"),
        ] {
            match CsvTrace::parse(text) {
                Err(OptimusError::Serving { reason }) => {
                    assert!(reason.contains(needle), "{reason:?} missing {needle:?}");
                }
                other => panic!("{text:?} should fail, got {other:?}"),
            }
        }
    }
}
