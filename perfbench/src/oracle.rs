//! Shadow history: the salary timeline of every employee, computed from the
//! generated `dataset::Op` stream alone, with no code from the engine.
//!
//! * A hire opens a salary period on its date.
//! * A raise to a new value closes the open period the day before and opens
//!   one on its date.
//! * A departure closes the open period the day before, or on its own date
//!   when the period began that day.
//!
//! Every period remembers which change opened it and which closed it, so the
//! timeline as of any committed prefix of the stream is a filter, not a
//! replay. Open periods print as `9999-12-31` and compare as the pinned now.

use dataset::Op;
use std::collections::{BTreeSet, HashMap};
use temporal::{Date, END_OF_TIME};

/// One salary period.
#[derive(Debug, Clone, Copy)]
struct Period {
    id: i64,
    value: i64,
    start: Date,
    /// Closing date, if a later change closed the period.
    end: Date,
    /// Index of the change that opened the period.
    opened: usize,
    /// Index of the change that closed it (`usize::MAX`: never closed).
    closed: usize,
}

/// A salary row as the engine prints it: (value, tstart, tend).
pub type Row = (i64, Date, Date);

/// One query instance of the Q1–Q6 mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Salary of employee `id` on a date.
    Q1 { id: i64, d: Date },
    /// Average salary on a date.
    Q2 { d: Date },
    /// Salary history of employee `id`.
    Q3 { id: i64 },
    /// Number of salary periods.
    Q4,
    /// Employees earning more than `k` at some time in `[d1, d2]`.
    Q5 { k: i64, d1: Date, d2: Date },
    /// Largest raise between consecutive periods, the first overlapping
    /// `[d1, d2]`.
    Q6 { d1: Date, d2: Date },
}

impl Query {
    /// Query class index, 0 for Q1 through 5 for Q6.
    pub fn class(&self) -> usize {
        match self {
            Query::Q1 { .. } => 0,
            Query::Q2 { .. } => 1,
            Query::Q3 { .. } => 2,
            Query::Q4 => 3,
            Query::Q5 { .. } => 4,
            Query::Q6 { .. } => 5,
        }
    }

    /// The XQuery text the engine is asked.
    pub fn xquery(&self) -> String {
        use archis::queries::*;
        match *self {
            Query::Q1 { id, d } => q1_xquery(id, d),
            Query::Q2 { d } => q2_xquery(d),
            Query::Q3 { id } => q3_xquery(id),
            Query::Q4 => q4_xquery(),
            Query::Q5 { k, d1, d2 } => q5_xquery(k, d1, d2),
            Query::Q6 { d1, d2 } => q6_xquery(d1, d2),
        }
    }
}

/// The answer of one query, in the form both sides are compared in.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Q1/Q3: a set of salary rows.
    Rows(BTreeSet<Row>),
    /// Q2: an average, `None` when no period is valid.
    Avg(Option<f64>),
    /// Q4/Q5/Q6: an integer, `None` for an empty aggregate.
    Int(Option<i64>),
}

impl Answer {
    /// Whether `self` (the engine's answer) matches `expected`: rows and
    /// integers exactly, averages to 1e-6.
    pub fn matches(&self, expected: &Answer) -> bool {
        match (self, expected) {
            (Answer::Avg(Some(a)), Answer::Avg(Some(b))) => (a - b).abs() <= 1e-6,
            (a, b) => a == b,
        }
    }
}

/// The shadow salary history of a whole op stream.
pub struct Shadow {
    periods: Vec<Period>,
    by_id: HashMap<i64, Vec<usize>>,
    now: Date,
}

impl Shadow {
    /// Build the shadow from the op stream; change `i` of the stream is
    /// `ops[i]`.
    pub fn new(ops: &[Op], now: Date) -> Self {
        let mut periods: Vec<Period> = Vec::new();
        let mut by_id: HashMap<i64, Vec<usize>> = HashMap::new();
        let mut open: HashMap<i64, usize> = HashMap::new();
        let close = |periods: &mut Vec<Period>, p: usize, at: Date, i: usize| {
            let period = &mut periods[p];
            period.end = if period.start == at { at } else { at.pred() };
            period.closed = i;
        };
        for (i, op) in ops.iter().enumerate() {
            let (id, at) = (op.id(), op.at());
            let new_value = match op {
                Op::Hire { salary, .. } => Some(*salary),
                Op::Raise { salary, .. } => {
                    if open.get(&id).is_some_and(|&p| periods[p].value == *salary) {
                        continue;
                    }
                    Some(*salary)
                }
                Op::Leave { .. } => None,
                Op::TitleChange { .. } | Op::DeptChange { .. } => continue,
            };
            if let Some(p) = open.remove(&id) {
                close(&mut periods, p, at, i);
            }
            if let Some(value) = new_value {
                open.insert(id, periods.len());
                by_id.entry(id).or_default().push(periods.len());
                periods.push(Period {
                    id,
                    value,
                    start: at,
                    end: END_OF_TIME,
                    opened: i,
                    closed: usize::MAX,
                });
            }
        }
        Shadow {
            periods,
            by_id,
            now,
        }
    }

    /// Every employee id ever hired, ascending.
    pub fn ids(&self) -> Vec<i64> {
        let mut ids: Vec<i64> = self.by_id.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Lowest and highest salary value ever recorded.
    pub fn salary_range(&self) -> (i64, i64) {
        let lo = self.periods.iter().map(|p| p.value).min().unwrap_or(0);
        let hi = self.periods.iter().map(|p| p.value).max().unwrap_or(0);
        (lo, hi)
    }

    /// Period `p` as printed once the first `n` changes are committed
    /// (`9999-12-31` while open), or `None` if it did not exist yet.
    fn row(&self, p: &Period, n: usize) -> Option<Row> {
        let end = if p.closed < n { p.end } else { END_OF_TIME };
        (p.opened < n).then_some((p.value, p.start, end))
    }

    fn visible<'a>(&'a self, idx: &'a [usize], n: usize) -> impl Iterator<Item = Row> + 'a {
        idx.iter()
            .filter_map(move |&p| self.row(&self.periods[p], n))
    }

    fn all(&self, n: usize) -> impl Iterator<Item = (i64, Row)> + '_ {
        self.periods
            .iter()
            .filter_map(move |p| Some((p.id, self.row(p, n)?)))
    }

    /// The end a period compares as: open periods end at the pinned now.
    fn cmp_end(&self, end: Date) -> Date {
        if end == END_OF_TIME {
            self.now
        } else {
            end
        }
    }

    /// The expected answer of `q` after the first `n` changes committed.
    pub fn answer(&self, q: &Query, n: usize) -> Answer {
        let none: &[usize] = &[];
        let of = |id: i64| self.by_id.get(&id).map_or(none, |v| v.as_slice());
        match *q {
            Query::Q1 { id, d } => Answer::Rows(
                self.visible(of(id), n)
                    .filter(|&(_, s, e)| s <= d && d <= self.cmp_end(e))
                    .collect(),
            ),
            Query::Q2 { d } => {
                let (mut sum, mut cnt) = (0i64, 0i64);
                for (_, (v, s, e)) in self.all(n) {
                    if s <= d && d <= self.cmp_end(e) {
                        sum += v;
                        cnt += 1;
                    }
                }
                Answer::Avg((cnt > 0).then(|| sum as f64 / cnt as f64))
            }
            Query::Q3 { id } => Answer::Rows(self.visible(of(id), n).collect()),
            Query::Q4 => Answer::Int(Some(self.all(n).count() as i64)),
            Query::Q5 { k, d1, d2 } => {
                let ids: BTreeSet<i64> = self
                    .all(n)
                    .filter(|&(_, (v, s, e))| v > k && s <= d2 && d1 <= e)
                    .map(|(id, _)| id)
                    .collect();
                Answer::Int(Some(ids.len() as i64))
            }
            Query::Q6 { d1, d2 } => {
                let mut best: Option<i64> = None;
                for idx in self.by_id.values() {
                    let rows: Vec<Row> = self.visible(idx, n).collect();
                    for &(v1, s1, e1) in &rows {
                        if e1 == END_OF_TIME || !(s1 <= d2 && d1 <= e1) {
                            continue;
                        }
                        for &(v2, s2, _) in &rows {
                            if e1.succ() == s2 {
                                best = Some(best.map_or(v2 - v1, |b| b.max(v2 - v1)));
                            }
                        }
                    }
                }
                Answer::Int(best)
            }
        }
    }
}

/// Parse the text the engine rendered for `q` back into an [`Answer`].
pub fn parse(q: &Query, text: &str) -> Result<Answer, String> {
    let num = |s: &str| -> Result<Option<f64>, String> {
        let s = s.trim();
        if s.is_empty() || s == "NULL" {
            return Ok(None);
        }
        s.parse::<f64>()
            .map(Some)
            .map_err(|e| format!("bad number {s:?}: {e}"))
    };
    match q {
        Query::Q1 { .. } | Query::Q3 { .. } => {
            let mut rows = BTreeSet::new();
            for frag in text.lines().filter(|l| !l.trim().is_empty()) {
                let e = xmldom::parse(frag).map_err(|e| format!("bad fragment {frag:?}: {e}"))?;
                let date = |name: &str| {
                    e.attr(name)
                        .and_then(|s| Date::parse(s).ok())
                        .ok_or_else(|| format!("fragment {frag:?} lacks a valid {name}"))
                };
                let value = e
                    .text_content()
                    .trim()
                    .parse::<i64>()
                    .map_err(|err| format!("bad salary in {frag:?}: {err}"))?;
                rows.insert((value, date("tstart")?, date("tend")?));
            }
            Ok(Answer::Rows(rows))
        }
        Query::Q2 { .. } => Ok(Answer::Avg(num(text)?)),
        _ => match num(text)? {
            Some(v) if v.fract() != 0.0 => Err(format!("non-integral count {v}")),
            v => Ok(Answer::Int(v.map(|v| v as i64))),
        },
    }
}

#[cfg(test)]
mod tests {
    //! The shadow must agree with two computations made apart from it: the
    //! native XQuery evaluator over the published H-document (`xmldb`) and
    //! the translated SQL on a store that was never archived. Both agree
    //! with the engine's design on every randomized instance, so a wrong
    //! oracle fails here rather than inside a workload.

    use super::*;
    use crate::bench::{read_out, Rng};
    use archis::{ArchConfig, ArchIS, RelationSpec};
    use archis_bench::op_to_change;

    fn history(seed: u64) -> Vec<Op> {
        dataset::generate(&dataset::DatasetConfig {
            employees: 12,
            years: 17,
            seed,
            ..Default::default()
        })
    }

    /// An in-memory store of `ops`, never archived.
    fn unarchived(ops: &[Op]) -> ArchIS {
        let mut a = ArchIS::new(ArchConfig::default());
        a.create_relation(RelationSpec::employee()).unwrap();
        let changes: Vec<_> = ops.iter().map(op_to_change).collect();
        for batch in changes.chunks(16) {
            a.apply_all(batch).unwrap();
        }
        a
    }

    fn random_queries(shadow: &Shadow, rng: &mut Rng, n: usize) -> Vec<Query> {
        let ids = shadow.ids();
        let (lo, hi) = shadow.salary_range();
        let first = Date::from_ymd(1985, 1, 1).unwrap();
        let date = |rng: &mut Rng| first + rng.below(17 * 365) as i32;
        let mut out = Vec::new();
        for _ in 0..n {
            let id = ids[rng.below(ids.len() as u64) as usize];
            let d = date(rng);
            let d2 = d + (30 + rng.below(700)) as i32;
            let k = lo + rng.below((hi - lo) as u64 + 1) as i64;
            out.extend([
                Query::Q1 { id, d },
                Query::Q2 { d },
                Query::Q3 { id },
                Query::Q4,
                Query::Q5 { k, d1: d, d2 },
                Query::Q6 { d1: d, d2 },
            ]);
        }
        out
    }

    #[test]
    fn shadow_agrees_with_native_xquery_and_unarchived_store() {
        for seed in [1, 2, 3] {
            let ops = history(seed);
            let now = Date::from_ymd(2005, 1, 1).unwrap();
            let shadow = Shadow::new(&ops, now);
            let store = unarchived(&ops);
            let native = xmldb::XmlDb::new(now);
            native.store("employees.xml", &store.publish("employee").unwrap());
            let mut rng = Rng::new(seed);
            for q in random_queries(&shadow, &mut rng, 25) {
                let expected = shadow.answer(&q, ops.len());
                let sql = read_out(&store.query(&q.xquery()).unwrap());
                let got = parse(&q, &sql).unwrap();
                assert!(
                    got.matches(&expected),
                    "{q:?}: store {got:?}, shadow {expected:?}"
                );
                let xml = native.query_xml(&q.xquery()).unwrap();
                let got = parse(&q, &xml).unwrap();
                assert!(
                    got.matches(&expected),
                    "{q:?}: xmldb {got:?}, shadow {expected:?}"
                );
            }
        }
    }

    #[test]
    fn shadow_prefix_matches_a_store_of_that_prefix() {
        let ops = history(4);
        let now = Date::from_ymd(2005, 1, 1).unwrap();
        let shadow = Shadow::new(&ops, now);
        let mut rng = Rng::new(4);
        for n in [ops.len() / 3, ops.len() / 2, ops.len() - 1] {
            let store = unarchived(&ops[..n]);
            for q in random_queries(&shadow, &mut rng, 10) {
                let expected = shadow.answer(&q, n);
                let got = parse(&q, &read_out(&store.query(&q.xquery()).unwrap())).unwrap();
                assert!(
                    got.matches(&expected),
                    "prefix {n} {q:?}: {got:?} vs {expected:?}"
                );
            }
        }
    }

    #[test]
    fn departure_closes_on_its_own_date_when_the_period_began_that_day() {
        let at = Date::from_ymd(1990, 3, 1).unwrap();
        let ops = vec![
            Op::Hire {
                id: 1,
                name: "a".into(),
                salary: 100,
                title: "t".into(),
                deptno: "d".into(),
                at,
            },
            Op::Leave { id: 1, at },
        ];
        let shadow = Shadow::new(&ops, Date::from_ymd(2005, 1, 1).unwrap());
        let rows = BTreeSet::from([(100, at, at)]);
        assert_eq!(shadow.answer(&Query::Q3 { id: 1 }, 2), Answer::Rows(rows));
        let open = BTreeSet::from([(100, at, END_OF_TIME)]);
        assert_eq!(shadow.answer(&Query::Q3 { id: 1 }, 1), Answer::Rows(open));
    }

    #[test]
    fn parse_reads_empty_and_null_aggregates() {
        assert_eq!(
            parse(&Query::Q2 { d: END_OF_TIME }, "NULL"),
            Ok(Answer::Avg(None))
        );
        assert_eq!(parse(&Query::Q4, "42"), Ok(Answer::Int(Some(42))));
        assert_eq!(
            parse(
                &Query::Q6 {
                    d1: END_OF_TIME,
                    d2: END_OF_TIME
                },
                ""
            ),
            Ok(Answer::Int(None))
        );
        assert!(parse(&Query::Q4, "4.5").is_err());
    }
}
