//! Seeded inputs: the point picture added to the §2 US database, the
//! read mix sent to the server, and the brute-force answers each read is
//! checked against.

use pictorial_relational::{Column, ColumnType, Schema, Value};
use psql::database::PictorialDatabase;
use psql::{ResultSet, SpatialOp};
use rand::rngs::StdRng;
use rand::Rng;
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::ItemId;
use rtree_workload::{points, usmap, PAPER_UNIVERSE};

/// The picture holding the generated points.
pub const PICTURE: &str = "pts";

/// The §2 juxtaposition join; the US database answers it with 42 rows.
pub const JUXTAPOSITION: &str = "select city, zone from cities, time-zones on us-map, \
                                 time-zone-map at cities.loc covered-by time-zones.loc";
pub const JUXTAPOSITION_ROWS: usize = 42;

/// Figure 2's window over the eastern US with a population filter.
pub const FIGURE2: &str = "select city, population from cities on us-map \
                           at loc covered-by {82.5 +- 17.5, 25 +- 20} where population > 450000";

/// Nearest neighbours asked for by a `knn` read.
pub const KNN_K: usize = 10;

/// Half-widths of the two window classes (in the `[0,1000]²` universe).
pub const SMALL_HALF_WIDTH: f64 = 1.0;
pub const LARGE_HALF_WIDTH: f64 = 15.0;

/// The four read classes of the mix, with their shares in percent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    WindowSmall,
    WindowLarge,
    Knn,
    Usmap,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::WindowSmall,
        Class::WindowLarge,
        Class::Knn,
        Class::Usmap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::WindowSmall => "window_small",
            Class::WindowLarge => "window_large",
            Class::Knn => "knn",
            Class::Usmap => "usmap",
        }
    }

    /// 60% small windows, 10% large windows, 20% k-NN, 10% US map.
    fn pick(rng: &mut StdRng) -> Class {
        match rng.gen_range(0u32..100) {
            0..=59 => Class::WindowSmall,
            60..=69 => Class::WindowLarge,
            70..=89 => Class::Knn,
            _ => Class::Usmap,
        }
    }
}

/// One read of the mix: its PSQL text and what it asks for.
#[derive(Clone, Debug)]
pub struct Read {
    pub class: Class,
    pub text: String,
    pub shape: Shape,
}

#[derive(Clone, Debug)]
pub enum Shape {
    /// `covered-by` this window (exactly as the parser computes it).
    Window(Rect),
    /// The `KNN_K` nearest objects to this point.
    Nearest(Point),
    /// One of the two US-map texts, with its expected row count.
    Fixed(usize),
}

/// A coordinate drawn in thousandths, so the PSQL literal and the value
/// the parser reads back are the same `f64`.
fn coordinate(rng: &mut StdRng, margin: f64) -> (String, f64) {
    let lo = (margin * 1000.0) as u64;
    let hi = ((1000.0 - margin) * 1000.0) as u64;
    let m = rng.gen_range(lo..=hi);
    let text = format!("{}.{:03}", m / 1000, m % 1000);
    let value = text.parse::<f64>().expect("formatted decimal parses");
    (text, value)
}

fn window_read(rng: &mut StdRng, class: Class, half: f64) -> Read {
    let (xs, cx) = coordinate(rng, half);
    let (ys, cy) = coordinate(rng, half);
    Read {
        class,
        text: format!(
            "select id from objs on {PICTURE} at loc covered-by {{{xs} +- {half}, {ys} +- {half}}}"
        ),
        shape: Shape::Window(Rect::new(cx - half, cy - half, cx + half, cy + half)),
    }
}

/// Row counts the two fixed US-map texts must return.
#[derive(Clone, Copy, Debug)]
pub struct Expected {
    pub juxtaposition: usize,
    pub figure2: usize,
}

/// The next read of the mix.
pub fn next_read(rng: &mut StdRng, expected: &Expected) -> Read {
    let class = Class::pick(rng);
    match class {
        Class::WindowSmall => window_read(rng, class, SMALL_HALF_WIDTH),
        Class::WindowLarge => window_read(rng, class, LARGE_HALF_WIDTH),
        Class::Knn => {
            let (xs, x) = coordinate(rng, 0.0);
            let (ys, y) = coordinate(rng, 0.0);
            Read {
                class,
                text: format!(
                    "select id from objs on {PICTURE} at loc nearest {KNN_K} {{{xs} +- 0, {ys} +- 0}}"
                ),
                shape: Shape::Nearest(Point::new(x, y)),
            }
        }
        Class::Usmap => {
            if rng.gen_bool(0.5) {
                Read {
                    class,
                    text: JUXTAPOSITION.to_owned(),
                    shape: Shape::Fixed(expected.juxtaposition),
                }
            } else {
                Read {
                    class,
                    text: FIGURE2.to_owned(),
                    shape: Shape::Fixed(expected.figure2),
                }
            }
        }
    }
}

/// Rows Figure 2's query must return, counted from the source data.
pub fn figure2_rows() -> usize {
    let window = Rect::new(65.0, 5.0, 100.0, 45.0);
    usmap::cities()
        .iter()
        .filter(|c| c.population > 450_000)
        .filter(|c| SpatialOp::CoveredBy.eval_window(&SpatialObject::Point(c.location), &window))
        .count()
}

/// `n` uniform points in the paper's universe (§3.5).
pub fn generate_points(rng: &mut StdRng, n: usize) -> Vec<Point> {
    points::uniform(rng, &PAPER_UNIVERSE, n)
}

/// The US database plus picture `pts` holding `pts` and relation
/// `objs(id, loc)` with one tuple per point, everything packed with the
/// paper's M=4 configuration.
pub fn build_database(pts: &[Point]) -> PictorialDatabase {
    let mut db = PictorialDatabase::with_us_map();
    db.create_picture(PICTURE, PAPER_UNIVERSE)
        .expect("fresh picture");
    let schema = Schema::new(vec![
        Column::new("id", ColumnType::Int),
        Column::new("loc", ColumnType::Pointer),
    ])
    .expect("valid schema");
    db.catalog_mut()
        .create_relation("objs", schema)
        .expect("fresh relation");
    db.associate("objs", "loc", PICTURE).expect("association");
    for (i, p) in pts.iter().enumerate() {
        let obj = db
            .add_object(PICTURE, SpatialObject::Point(*p), "")
            .expect("picture exists");
        db.insert("objs", vec![Value::Int(i as i64), Value::Pointer(obj)])
            .expect("valid tuple");
    }
    db.pack_all();
    db
}

/// Brute-force answers over the generated points.
///
/// Inserted objects join picture `pts` but no `objs` tuple, so they never
/// appear as rows. A window answer is therefore exactly the base answer.
/// A k-NN answer is the base objects among the k nearest of base plus
/// the inserts visible when it ran: the nearest base objects, with one
/// row fewer for each visible insert that is nearer than the next base
/// object.
pub struct Oracle {
    objects: Vec<SpatialObject>,
    items: Vec<(Rect, ItemId)>,
}

impl Oracle {
    pub fn new(pts: &[Point]) -> Oracle {
        Oracle {
            objects: pts.iter().map(|&p| SpatialObject::Point(p)).collect(),
            items: points::as_items(pts),
        }
    }

    /// Why `result` is not the right answer to `read`, if it is not.
    /// `inserted` holds every point sent for insertion so far.
    pub fn check(&self, read: &Read, result: &ResultSet, inserted: &[Point]) -> Result<(), String> {
        match &read.shape {
            Shape::Fixed(rows) => {
                if result.len() == *rows {
                    Ok(())
                } else {
                    Err(format!("expected {rows} rows, got {}", result.len()))
                }
            }
            Shape::Window(w) => {
                let want =
                    rtree_oracle::reference::window_objects(&self.objects, SpatialOp::CoveredBy, w);
                let mut got = ids(result)?;
                got.sort_unstable();
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "window {w:?}: expected {} ids, got {}",
                        want.len(),
                        got.len()
                    ))
                }
            }
            Shape::Nearest(p) => {
                let want = rtree_oracle::reference::nearest_distances(&self.items, *p, KNN_K);
                let mut got = Vec::new();
                for id in ids(result)? {
                    let obj = self
                        .objects
                        .get(id as usize)
                        .ok_or_else(|| format!("id {id} out of range"))?;
                    got.push(obj.mbr().min_distance_sq(*p));
                }
                got.sort_by(f64::total_cmp);
                let shown = got.len();
                if shown > want.len() || got[..] != want[..shown] {
                    return Err(format!("nearest {p:?}: distances differ"));
                }
                // Rows missing from k must be explained by nearer inserts.
                let next_base = want.get(shown).copied().unwrap_or(f64::INFINITY);
                let nearer = inserted
                    .iter()
                    .filter(|q| Rect::from_point(**q).min_distance_sq(*p) <= next_base)
                    .count();
                if KNN_K - shown <= nearer {
                    Ok(())
                } else {
                    Err(format!("nearest {p:?}: {shown} rows, expected {KNN_K}"))
                }
            }
        }
    }
}

/// The `id` column of a result.
fn ids(result: &ResultSet) -> Result<Vec<u64>, String> {
    let col = result.column("id").ok_or("no id column")?;
    col.into_iter()
        .map(|v| match v {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(format!("non-id value {other:?}")),
        })
        .collect()
}
