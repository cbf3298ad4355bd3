//! The airspace index behind the separation-risk monitor: a k-d tree
//! that answers "which airborne teammate is nearest to UAV `i`?" for
//! every subject of a tick in about O(n log n) instead of the O(n²)
//! pairwise scan.
//!
//! # The chord-space lower bound
//!
//! Each UAV is embedded as `R·(cos φ cos λ, cos φ sin λ, sin φ)` plus
//! its altitude: its point on the earth sphere and its height above
//! it. The Euclidean distance between two embeddings is
//! `sqrt(chord² + Δh²)`, and a chord is never longer than its arc, so
//! it is a lower bound on [`GeoPoint::distance_3d_m`] (`sqrt(arc² +
//! Δh²)`). The identity behind the haversine formula holds for any
//! latitude and longitude, so the bound needs no projection origin and
//! has no latitude band and no antimeridian seam.
//!
//! The tree splits at the median on the widest embedded axis. It
//! prunes a subtree only when the gap on its split axis exceeds the
//! best range found so far by more than [`SLACK_M`], and skips a single
//! teammate only when its embedded distance does. Every teammate
//! that survives is measured with the real `distance_3d_m`, with the
//! subject as the receiver as the pairwise scan calls it, and among
//! equal ranges the lowest fleet index wins, as the scan's strict `<`
//! in index order does. The answer is therefore bit-identical to that
//! scan, which survives as this module's test oracle.
//!
//! # Why a tree, not a uniform grid
//!
//! Fleets launch from one base point. In the measured 500-UAV steady
//! state most UAVs hover in stacks of 3–5 within 0.1 m of each other
//! while a few fly out to a few hundred metres. Fixed cells either
//! pile whole stacks into one cell or leave the ring search walking
//! hundreds of empty cells for the outliers; median splits adapt to
//! both without a cell-size parameter.

use sesame_types::geo::{GeoPoint, EARTH_RADIUS_M};
use sesame_types::telemetry::UavTelemetry;

/// Float slack on every pruning test, metres.
///
/// The embedded coordinates are ~6.4e6 m in magnitude, so each is
/// within a few ulps of `R` — a few nanometres — of its exact value,
/// and an embedded gap or distance overstates the exact chord-space
/// value by at most ~1e-8 m. The haversine rounds *relative* to the
/// range (~1e-15·d); where that could exceed a nanometre (long ranges)
/// the arc outruns the chord by `R·θ³/24`, which dwarfs it. Points
/// beyond ±[`MAX_INDEXED_DEG`] stay out of the tree, so the angle
/// differences the haversine takes are never rounded by more than
/// ~1e-14 rad (~5e-8 m). 1e-6 m is a 20× margin over the worst of
/// these and costs no measurable pruning power.
const SLACK_M: f64 = 1e-6;

/// Largest |latitude| or |longitude| (degrees) the tree accepts. Beyond
/// it the haversine's angle differences lose absolute precision and
/// the argument behind [`SLACK_M`] fails; such points, and non-finite
/// ones, go to a side list that every query scans.
const MAX_INDEXED_DEG: f64 = 1000.0;

/// One tree node: a teammate's embedding, its fleet index and the axis
/// its subtree splits on. Each node is the median of its subarray, so
/// the implicit layout needs no child links.
#[derive(Debug, Clone, Copy)]
struct Node {
    p: [f64; 4],
    j: usize,
    axis: usize,
}

/// The per-tick airspace index. It lives in the platform's tick
/// scratch: [`AirspaceIndex::rebuild`] refills the same buffers every
/// tick, so after the first tick it does not allocate.
#[derive(Debug, Default)]
pub(crate) struct AirspaceIndex {
    /// Embedding of every UAV, by fleet index. Subjects need one too,
    /// and a subject need not be a teammate.
    embedded: Vec<[f64; 4]>,
    /// The k-d tree over the indexable teammates.
    nodes: Vec<Node>,
    /// Teammates outside the indexed domain.
    side: Vec<usize>,
}

/// Chord-space embedding of a position (see the module docs).
fn embed(p: &GeoPoint) -> [f64; 4] {
    let (lat, lon) = (p.lat_deg.to_radians(), p.lon_deg.to_radians());
    let r_cos_lat = EARTH_RADIUS_M * lat.cos();
    [
        r_cos_lat * lon.cos(),
        r_cos_lat * lon.sin(),
        EARTH_RADIUS_M * lat.sin(),
        p.alt_m,
    ]
}

fn indexable(p: &GeoPoint) -> bool {
    p.lat_deg.abs() <= MAX_INDEXED_DEG && p.lon_deg.abs() <= MAX_INDEXED_DEG && p.alt_m.is_finite()
}

/// Whether `me` closes on `other`: the relative velocity points at the
/// teammate.
fn converging(me: &UavTelemetry, other: &UavTelemetry) -> bool {
    let rel = other.true_position.to_enu(&me.true_position);
    let rel_v = me.velocity - other.velocity;
    rel_v.dot(&rel.into()) > 0.0
}

impl AirspaceIndex {
    /// Rebuilds the index over this tick's fleet; UAV `j` is a teammate
    /// when `teammate(j)` holds.
    pub(crate) fn rebuild(
        &mut self,
        telemetries: &[UavTelemetry],
        teammate: impl Fn(usize) -> bool,
    ) {
        self.embedded.clear();
        self.embedded
            .extend(telemetries.iter().map(|t| embed(&t.true_position)));
        self.nodes.clear();
        self.side.clear();
        for (j, tel) in telemetries.iter().enumerate() {
            if !teammate(j) {
                continue;
            }
            if indexable(&tel.true_position) {
                self.nodes.push(Node {
                    p: self.embedded[j],
                    j,
                    axis: 0,
                });
            } else {
                self.side.push(j);
            }
        }
        split(&mut self.nodes);
    }

    /// The range to subject `i`'s nearest teammate (never `i` itself)
    /// and whether `i` closes on it, or `None` when no teammate is at a
    /// finite range. Bit-identical to the pairwise scan.
    pub(crate) fn nearest_teammate(
        &self,
        i: usize,
        telemetries: &[UavTelemetry],
    ) -> Option<(f64, bool)> {
        let q = self.query(i, telemetries);
        q.best_d.is_finite().then(|| {
            (
                q.best_d,
                converging(&telemetries[i], &telemetries[q.best_j]),
            )
        })
    }

    fn query<'a>(&self, i: usize, telemetries: &'a [UavTelemetry]) -> Query<'a> {
        let mut q = Query {
            i,
            at: self.embedded[i],
            // A subject outside the indexed domain has no valid lower
            // bound: an infinite slack switches every pruning test off.
            slack: if indexable(&telemetries[i].true_position) {
                SLACK_M
            } else {
                f64::INFINITY
            },
            telemetries,
            best_j: usize::MAX,
            best_d: f64::INFINITY,
            visits: 0,
            ranges: 0,
        };
        q.search(&self.nodes);
        for &j in &self.side {
            q.consider(j);
        }
        q
    }
}

/// One nearest-teammate query in flight.
struct Query<'a> {
    i: usize,
    at: [f64; 4],
    slack: f64,
    telemetries: &'a [UavTelemetry],
    best_j: usize,
    best_d: f64,
    /// Tree nodes whose embedded distance was taken, and real ranges
    /// evaluated: the probes for pruning power.
    visits: usize,
    ranges: usize,
}

impl Query<'_> {
    fn search(&mut self, nodes: &[Node]) {
        if nodes.is_empty() {
            return;
        }
        let mid = nodes.len() / 2;
        let node = &nodes[mid];
        let gap = self.at[node.axis] - node.p[node.axis];
        let (near, far) = if gap < 0.0 {
            (&nodes[..mid], &nodes[mid + 1..])
        } else {
            (&nodes[mid + 1..], &nodes[..mid])
        };
        self.search(near);
        // The node lies on the split plane, so the far side's bound
        // covers it too. Strictly greater: a teammate at exactly the
        // best range may still win on a lower index.
        if gap.abs() - self.slack > self.best_d {
            return;
        }
        self.visits += 1;
        let dist = self
            .at
            .iter()
            .zip(&node.p)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        if dist - self.slack <= self.best_d {
            self.consider(node.j);
        }
        self.search(far);
    }

    fn consider(&mut self, j: usize) {
        if j == self.i {
            return;
        }
        self.ranges += 1;
        let d = self.telemetries[self.i]
            .true_position
            .distance_3d_m(&self.telemetries[j].true_position);
        if d < self.best_d || (d == self.best_d && j < self.best_j) {
            self.best_d = d;
            self.best_j = j;
        }
    }
}

/// Arranges `nodes` into an implicit k-d tree: the median on the widest
/// embedded axis becomes the node and the two halves recurse.
fn split(nodes: &mut [Node]) {
    if nodes.len() <= 1 {
        return;
    }
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    for n in nodes.iter() {
        for k in 0..4 {
            lo[k] = lo[k].min(n.p[k]);
            hi[k] = hi[k].max(n.p[k]);
        }
    }
    let axis = (0..4)
        .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
        .unwrap_or(0);
    let mid = nodes.len() / 2;
    nodes.select_nth_unstable_by(mid, |a, b| a.p[axis].total_cmp(&b.p[axis]));
    nodes[mid].axis = axis;
    let (left, rest) = nodes.split_at_mut(mid);
    split(left);
    split(&mut rest[1..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sesame_types::geo::Vec3;
    use sesame_types::ids::UavId;
    use sesame_types::telemetry::FlightMode;
    use sesame_types::time::SimTime;

    /// The pairwise scan the index replaced, kept verbatim as the
    /// oracle: every teammate in fleet order, strict `<`, `converging`
    /// recomputed at each improvement. Returns `(argmin, range,
    /// converging)`.
    fn oracle(
        i: usize,
        telemetries: &[UavTelemetry],
        teammate: impl Fn(usize) -> bool,
    ) -> Option<(usize, f64, bool)> {
        let tel = &telemetries[i];
        let mut nearest = f64::INFINITY;
        let mut argmin = usize::MAX;
        let mut converging = false;
        for (j, other) in telemetries.iter().enumerate() {
            if j == i || !teammate(j) {
                continue;
            }
            let d = tel.true_position.distance_3d_m(&other.true_position);
            if d < nearest {
                nearest = d;
                argmin = j;
                let rel = other.true_position.to_enu(&tel.true_position);
                let rel_v = tel.velocity - other.velocity;
                converging = rel_v.dot(&rel.into()) > 0.0;
            }
        }
        nearest.is_finite().then_some((argmin, nearest, converging))
    }

    /// A constructed fleet: telemetry plus the teammate mask
    /// (airborne and not quarantined, as the platform builds it).
    struct Fleet {
        tels: Vec<UavTelemetry>,
        quarantined: Vec<bool>,
    }

    impl Fleet {
        fn teammate(&self, j: usize) -> bool {
            !self.quarantined[j] && self.tels[j].mode.is_airborne()
        }
    }

    const STACKS: usize = 0;
    const TIES: usize = 1;
    const MIXED: usize = 2;
    const NON_FINITE: usize = 3;
    const SINGLE: usize = 4;
    const ANTIMERIDIAN: usize = 5;
    const POLE: usize = 6;
    const WIDE: usize = 7;
    const KINDS: usize = 8;

    fn uav(k: usize, pos: GeoPoint, rng: &mut StdRng) -> UavTelemetry {
        let mut t = UavTelemetry::nominal(UavId::new(k as u32 + 1), SimTime::ZERO, pos);
        let mut v = || rng.random::<f64>() * 20.0 - 10.0;
        t.velocity = Vec3::new(v(), v(), v());
        t.mode = FlightMode::Mission;
        t
    }

    /// Stacks of 3–5 UAVs within 0.1 m of each other around `base`,
    /// each stack at most `spread_m` out, as the 500-UAV fleet hovers
    /// over its launch point; one in eight UAVs flies out to `spread_m`
    /// alone.
    fn stacks(n: usize, base: GeoPoint, spread_m: f64, rng: &mut StdRng) -> Vec<UavTelemetry> {
        let mut tels = Vec::with_capacity(n);
        let mut centre = base;
        let mut left_in_stack = 0;
        for k in 0..n {
            if left_in_stack == 0 {
                left_in_stack = 3 + (rng.random::<u64>() % 3) as usize;
                centre = base
                    .destination(rng.random::<f64>() * 360.0, rng.random::<f64>() * spread_m)
                    .with_alt(30.0 + rng.random::<f64>() * 0.1);
            }
            left_in_stack -= 1;
            let pos = if rng.random::<f64>() < 0.125 {
                base.destination(rng.random::<f64>() * 360.0, rng.random::<f64>() * spread_m)
                    .with_alt(10.0 + rng.random::<f64>() * 40.0)
            } else {
                let p = centre.destination(rng.random::<f64>() * 360.0, rng.random::<f64>() * 0.1);
                p.with_alt(centre.alt_m + rng.random::<f64>() * 0.05)
            };
            tels.push(uav(k, pos, rng));
        }
        tels
    }

    fn fleet(kind: usize, n: usize, seed: u64) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = GeoPoint::new(35.05, 33.2, 0.0);
        let mut tels = match kind {
            ANTIMERIDIAN => stacks(n, GeoPoint::new(-12.0, 179.9995, 0.0), 400.0, &mut rng),
            POLE => stacks(n, GeoPoint::new(89.9997, 20.0, 0.0), 400.0, &mut rng),
            WIDE => stacks(n, base, 150_000.0, &mut rng),
            _ => stacks(n, base, 320.0, &mut rng),
        };
        let mut quarantined = vec![false; n];
        match kind {
            TIES => {
                // Exact copies of a few positions: every subject sees
                // bit-equal ranges to several teammates.
                let anchors: Vec<GeoPoint> = tels.iter().take(3).map(|t| t.true_position).collect();
                for t in tels.iter_mut().skip(3) {
                    t.true_position = anchors[(rng.random::<u64>() % 3) as usize];
                }
            }
            MIXED => {
                for k in 0..n {
                    quarantined[k] = rng.random::<f64>() < 0.3;
                    if rng.random::<f64>() < 0.3 {
                        tels[k].mode = FlightMode::Grounded;
                    }
                }
            }
            NON_FINITE => {
                let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5000.0, -1e300];
                for t in tels.iter_mut() {
                    if rng.random::<f64>() < 0.3 {
                        let v = poison[(rng.random::<u64>() % 5) as usize];
                        match rng.random::<u64>() % 3 {
                            0 => t.true_position.lat_deg = v,
                            1 => t.true_position.lon_deg = v,
                            _ => t.true_position.alt_m = v,
                        }
                    }
                }
            }
            SINGLE => {
                let airborne = (rng.random::<u64>() % n as u64) as usize;
                for (k, t) in tels.iter_mut().enumerate() {
                    if k != airborne {
                        t.mode = FlightMode::Grounded;
                    }
                }
            }
            _ => {}
        }
        Fleet { tels, quarantined }
    }

    fn index_of(f: &Fleet) -> AirspaceIndex {
        let mut index = AirspaceIndex::default();
        index.rebuild(&f.tels, |j| f.teammate(j));
        index
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn index_equals_the_pairwise_oracle(
            kind in 0usize..KINDS,
            n in 1usize..80,
            seed in 0u64..u64::MAX,
        ) {
            let f = fleet(kind, n, seed);
            let index = index_of(&f);
            for i in 0..n {
                let want = oracle(i, &f.tels, |j| f.teammate(j));
                let q = index.query(i, &f.tels);
                let got = q.best_d.is_finite().then(|| {
                    (q.best_j, q.best_d, converging(&f.tels[i], &f.tels[q.best_j]))
                });
                prop_assert_eq!(
                    got.map(|(j, d, c)| (j, d.to_bits(), c)),
                    want.map(|(j, d, c)| (j, d.to_bits(), c)),
                    "kind {} n {} seed {} subject {}", kind, n, seed, i
                );
                prop_assert_eq!(
                    index.nearest_teammate(i, &f.tels).map(|(d, c)| (d.to_bits(), c)),
                    want.map(|(_, d, c)| (d.to_bits(), c))
                );
            }
        }
    }

    #[test]
    fn ties_go_to_the_lowest_fleet_index() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = GeoPoint::new(35.05, 33.2, 30.0);
        let q = p.destination(90.0, 12.0);
        // Teammates 3 and 1 share one position, 2 another further out;
        // the subject 0 must pick 1, as the scan does.
        let tels: Vec<UavTelemetry> = [p, q, p.destination(90.0, 40.0), q]
            .into_iter()
            .enumerate()
            .map(|(k, pos)| uav(k, pos, &mut rng))
            .collect();
        let mut index = AirspaceIndex::default();
        index.rebuild(&tels, |_| true);
        let got = index.query(0, &tels);
        assert_eq!(got.best_j, 1);
        assert_eq!(
            index.nearest_teammate(0, &tels).map(|(d, _)| d.to_bits()),
            oracle(0, &tels, |_| true).map(|(_, d, _)| d.to_bits())
        );
    }

    #[test]
    fn lone_uav_has_no_teammate() {
        let f = fleet(SINGLE, 1, 3);
        assert_eq!(index_of(&f).nearest_teammate(0, &f.tels), None);
    }

    /// The pruning-power gate: on the launch-stack layout the tree must
    /// touch a small fraction of the `n (n - 1)` pairs. A tree that
    /// quietly stopped pruning fails here before it shows up as time.
    #[test]
    fn clustered_fleet_prunes_most_pairs() {
        let n = 2000;
        let f = fleet(STACKS, n, 11);
        let index = index_of(&f);
        let (mut visits, mut ranges) = (0, 0);
        for i in 0..n {
            let q = index.query(i, &f.tels);
            visits += q.visits;
            ranges += q.ranges;
        }
        assert!(visits <= 16 * n, "{visits} nodes visited for {n} subjects");
        assert!(
            ranges <= 8 * n,
            "{ranges} ranges evaluated for {n} subjects"
        );
    }

    /// Far outside the indexed domain the haversine stops agreeing with
    /// the embedding: at 1e20° the latitude difference rounds to the
    /// subject's own latitude, so both teammates below sit at one
    /// bit-equal range although one is 3 900 km further in chord space.
    /// Pruning would drop the lower index; the subject must be scanned
    /// and must not be indexed (south of the equator it would sort
    /// below both teammates and leave the far one to be pruned).
    #[test]
    fn out_of_domain_subject_is_scanned_exhaustively() {
        let mut rng = StdRng::seed_from_u64(5);
        let lat = (0..10_000)
            .map(|k| 1e20 + k as f64 * 1e6)
            .find(|lat: &f64| lat.to_radians().cos() > 0.99 && lat.to_radians().sin() < 0.0)
            .expect("some latitude lands just south of the equator");
        let tels: Vec<UavTelemetry> = [
            GeoPoint::new(35.0, 0.0, 0.0),
            GeoPoint::new(1e-4, 0.0, 0.0),
            GeoPoint::new(lat, 0.0, 0.0),
        ]
        .into_iter()
        .enumerate()
        .map(|(k, pos)| uav(k, pos, &mut rng))
        .collect();
        let mut index = AirspaceIndex::default();
        index.rebuild(&tels, |_| true);
        let want = oracle(2, &tels, |_| true);
        assert_eq!(want.map(|(j, _, _)| j), Some(0), "the constructed tie");
        assert_eq!(index.query(2, &tels).best_j, 0);
        for i in 0..3 {
            assert_eq!(
                index
                    .nearest_teammate(i, &tels)
                    .map(|(d, c)| (d.to_bits(), c)),
                oracle(i, &tels, |_| true).map(|(_, d, c)| (d.to_bits(), c))
            );
        }
    }
}
