//! The three workloads: what each runs, at which scale, under which config.
//!
//! Each is a closed loop: a client sends its next statement only after the
//! previous one has drained. The seed sets the generated data, the order of
//! statements and (in `short_mix`) which literal variant runs.

use quokka::common::rng::DetRng;
use quokka::tpch::queries::sql::sql_text;
use quokka::{EngineConfig, FailureSpec};

/// Workers of the simulated cluster (one per core of a 2-core runner).
pub const WORKERS: u32 = 2;

/// Literal variants per `short_mix` template: more than the plan cache's 8
/// variants per template, so the loop sees hits, literal misses and
/// re-plans.
const SHORT_MIX_VARIANTS: usize = 12;
const SHORT_MIX_TEMPLATES: [usize; 7] = [1, 3, 4, 6, 12, 14, 19];
const KILL_QUERIES: [usize; 6] = [3, 5, 9, 10, 18, 21];

pub struct Statement {
    pub label: String,
    pub sql: String,
}

pub struct Workload {
    pub name: &'static str,
    pub sf: f64,
    pub clients: usize,
    pub config: EngineConfig,
    pub statements: Vec<Statement>,
    /// Every query kills worker 1 halfway; a query counts only if the kill
    /// fired and recovery replayed tasks.
    pub kill: bool,
    /// Draw statements uniformly instead of in seeded passes over all.
    uniform: bool,
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        let tpch = |numbers: &[usize]| -> Vec<Statement> {
            numbers
                .iter()
                .map(|&q| Statement {
                    label: format!("q{q:02}"),
                    sql: sql_text(q).expect("TPC-H query text").to_string(),
                })
                .collect()
        };
        Some(match name {
            "tpch22" => Workload {
                name: "tpch22",
                sf: 0.01,
                clients: 1,
                config: EngineConfig::quokka(WORKERS),
                statements: tpch(&(1..=22).collect::<Vec<_>>()),
                kill: false,
                uniform: false,
            },
            "short_mix" => Workload {
                name: "short_mix",
                sf: 0.002,
                clients: 2,
                config: EngineConfig::quokka(WORKERS),
                statements: SHORT_MIX_TEMPLATES
                    .iter()
                    .flat_map(|&q| (0..SHORT_MIX_VARIANTS).map(move |k| short_mix(q, k)))
                    .collect(),
                kill: false,
                uniform: true,
            },
            "kill_recovery" => Workload {
                name: "kill_recovery",
                sf: 0.01,
                clients: 1,
                config: EngineConfig::quokka(WORKERS).with_failure(FailureSpec::halfway(1)),
                statements: tpch(&KILL_QUERIES),
                kill: true,
                uniform: false,
            },
            _ => return None,
        })
    }

    /// The endless statement sequence client `client` runs under `seed`.
    pub fn order(&self, seed: u64, client: usize) -> Order {
        Order {
            rng: DetRng::derive(seed, client as u64 + 1),
            len: self.statements.len(),
            uniform: self.uniform,
            pass: Vec::new(),
        }
    }
}

pub struct Order {
    rng: DetRng,
    len: usize,
    uniform: bool,
    /// The rest of the current pass (a seeded permutation), popped from the back.
    pass: Vec<usize>,
}

impl Order {
    pub fn next_index(&mut self) -> usize {
        if self.uniform {
            return self.rng.next_below(self.len as u64) as usize;
        }
        if self.pass.is_empty() {
            self.pass = (0..self.len).collect();
            for i in (1..self.len).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.pass.swap(i, j);
            }
        }
        self.pass.pop().expect("a pass holds every statement")
    }
}

/// Literal variant `k` of a `short_mix` template: the TPC-H text with its
/// date and quantity literals replaced.
fn short_mix(query: usize, k: usize) -> Statement {
    let date = |y: usize, m: usize, d: usize| format!("DATE '{y}-{m:02}-{d:02}'");
    let next_month = |y: usize, m: usize| if m == 12 { (y + 1, 1) } else { (y, m + 1) };
    let swaps: Vec<(&str, String)> = match query {
        1 => vec![("DATE '1998-09-02'", date(1998, 8, 5 + 2 * k))],
        3 => vec![("DATE '1995-03-15'", date(1995, 3, 5 + 2 * k))],
        4 => {
            let (y, m) = (1993 + k / 4, 1 + 3 * (k % 4));
            let (ey, em) = if m == 10 { (y + 1, 1) } else { (y, m + 3) };
            vec![("DATE '1993-07-01'", date(y, m, 1)), ("DATE '1993-10-01'", date(ey, em, 1))]
        }
        6 => vec![
            ("DATE '1994-01-01'", date(1993 + k % 5, 1, 1)),
            ("DATE '1995-01-01'", date(1994 + k % 5, 1, 1)),
            ("l_quantity < 24", format!("l_quantity < {}", 24 + k / 5)),
        ],
        12 => {
            let (y, m) = (1993 + k % 6, 1 + 6 * (k / 6));
            vec![("DATE '1994-01-01'", date(y, m, 1)), ("DATE '1995-01-01'", date(y + 1, m, 1))]
        }
        14 => {
            let (ey, em) = next_month(1995, k + 1);
            vec![
                ("DATE '1995-09-01'", date(1995, k + 1, 1)),
                ("DATE '1995-10-01'", date(ey, em, 1)),
            ]
        }
        19 => {
            let (a, b) = (1 + k % 4, 10 + k / 4);
            vec![
                (
                    "l_quantity >= 1 AND l_quantity <= 11",
                    format!("l_quantity >= {a} AND l_quantity <= {}", a + 10),
                ),
                (
                    "l_quantity >= 10 AND l_quantity <= 20",
                    format!("l_quantity >= {b} AND l_quantity <= {}", b + 10),
                ),
            ]
        }
        _ => unreachable!("q{query} is not a short_mix template"),
    };
    let mut sql = sql_text(query).expect("TPC-H query text").to_string();
    for (from, to) in swaps {
        assert!(sql.contains(from), "q{query} no longer contains {from:?}");
        sql = sql.replace(from, &to);
    }
    Statement { label: format!("q{query:02}.v{k:02}"), sql }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_mix_variants_are_distinct_per_template() {
        let wl = Workload::named("short_mix").unwrap();
        for q in SHORT_MIX_TEMPLATES {
            let mut texts: Vec<&str> = wl
                .statements
                .iter()
                .filter(|s| s.label.starts_with(&format!("q{q:02}.")))
                .map(|s| s.sql.as_str())
                .collect();
            texts.sort();
            texts.dedup();
            assert_eq!(texts.len(), SHORT_MIX_VARIANTS, "q{q}");
        }
    }

    #[test]
    fn passes_cover_every_statement_and_follow_the_seed() {
        let wl = Workload::named("kill_recovery").unwrap();
        let take = |seed| {
            let mut order = wl.order(seed, 0);
            (0..12).map(|_| order.next_index()).collect::<Vec<_>>()
        };
        let run = take(7);
        assert_eq!(run, take(7));
        assert_ne!(run, take(8));
        for pass in run.chunks(6) {
            let mut sorted = pass.to_vec();
            sorted.sort();
            assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        }
    }
}
