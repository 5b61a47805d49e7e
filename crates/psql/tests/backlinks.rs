//! The forward direct search of §2.1 follows each qualifying object's
//! backward pointers to its tuples. These tests build a database whose
//! objects have zero, one or several tuples, with deleted tuples, NULL
//! and out-of-range pointers and a late association. Window, k-NN,
//! nested and juxtaposition answers (rows and highlights) must agree
//! with a brute-force scan over every tuple and object.

use pictorial_relational::{Column, ColumnType, Schema, TupleId, Value};
use psql::database::PictorialDatabase;
use psql::exec::query;
use psql::{ResultSet, SpatialOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_geom::{Point, Rect, Region, SpatialObject};
use rtree_index::RTreeConfig;

/// Objects in picture `pic` at build time.
const N: u64 = 240;

fn frame() -> Rect {
    Rect::new(0.0, 0.0, 100.0, 100.0)
}

fn relation(db: &mut PictorialDatabase, name: &str, cols: &[(&str, ColumnType)]) {
    let schema =
        Schema::new(cols.iter().map(|&(n, t)| Column::new(n, t)).collect()).expect("valid schema");
    db.catalog_mut()
        .create_relation(name, schema)
        .expect("fresh relation");
}

/// `things(name, loc)` on `pic`: object `i` gets `i % 4` tuples, inserted
/// in rounds so one object's tuples are not adjacent. Then some tuples
/// are deleted, and tuples with a NULL pointer, a pointer at `u64::MAX`
/// and one past the picture's length are added. `late(name, loc)` is
/// filled before its association is declared. `zones(zone, loc)` holds
/// rectangles on `zone-pic`, one of them with two tuples.
fn build(seed: u64) -> PictorialDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("pic", frame()).expect("fresh picture");
    db.create_picture("zone-pic", frame())
        .expect("fresh picture");
    relation(
        &mut db,
        "things",
        &[("name", ColumnType::Str), ("loc", ColumnType::Pointer)],
    );
    relation(
        &mut db,
        "late",
        &[("name", ColumnType::Str), ("loc", ColumnType::Pointer)],
    );
    relation(
        &mut db,
        "zones",
        &[("zone", ColumnType::Str), ("loc", ColumnType::Pointer)],
    );
    db.associate("things", "loc", "pic").expect("association");
    db.associate("zones", "loc", "zone-pic")
        .expect("association");

    for i in 0..N {
        let p = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let id = db
            .add_object("pic", SpatialObject::Point(p), &format!("o{i}"))
            .expect("picture exists");
        assert_eq!(id, i);
    }
    let mut by_object: Vec<Vec<TupleId>> = vec![Vec::new(); N as usize];
    for round in 0..3 {
        for i in (0..N).filter(|i| i % 4 > round) {
            let tid = db
                .insert(
                    "things",
                    vec![format!("t{i}.{round}").into(), Value::Pointer(i)],
                )
                .expect("valid tuple");
            by_object[i as usize].push(tid);
        }
    }
    // Objects with i % 8 == 1 lose their only tuple; those with
    // i % 8 == 3 lose their middle one.
    for i in 0..N {
        match i % 8 {
            1 => db.delete("things", by_object[i as usize][0]),
            3 => db.delete("things", by_object[i as usize][1]),
            _ => continue,
        }
        .expect("live tuple");
    }
    for (name, loc) in [
        ("null", Value::Null),
        ("far", Value::Pointer(u64::MAX)),
        ("past", Value::Pointer(N + 3)),
    ] {
        db.insert("things", vec![name.into(), loc])
            .expect("valid tuple");
    }

    for i in (0..N).step_by(5) {
        db.insert("late", vec![format!("l{i}").into(), Value::Pointer(i)])
            .expect("valid tuple");
    }
    db.insert("late", vec!["late-past".into(), Value::Pointer(N + 10)])
        .expect("valid tuple");
    db.associate("late", "loc", "pic").expect("association");

    for (z, (x, y)) in [(20.0, 20.0), (60.0, 30.0), (40.0, 70.0), (80.0, 80.0)]
        .into_iter()
        .enumerate()
    {
        let r = Region::rectangle(Rect::new(x - 15.0, y - 15.0, x + 15.0, y + 15.0));
        let obj = db
            .add_object("zone-pic", SpatialObject::Region(r), &format!("z{z}"))
            .expect("picture exists");
        for copy in 0..if z == 1 { 2 } else { 1 } {
            db.insert(
                "zones",
                vec![format!("z{z}.{copy}").into(), Value::Pointer(obj)],
            )
            .expect("valid tuple");
        }
    }
    db.pack_all();
    db
}

/// Live tuples of `relation` as `(first column, pointer)`, in tuple-id
/// order.
fn tuples(db: &PictorialDatabase, relation: &str) -> Vec<(Value, Option<u64>)> {
    db.catalog()
        .relation(relation)
        .expect("relation exists")
        .scan()
        .map(|(_, t)| (t[0].clone(), t[1].as_pointer()))
        .collect()
}

fn object<'a>(db: &'a PictorialDatabase, picture: &str, id: u64) -> Option<&'a SpatialObject> {
    db.picture(picture).expect("picture exists").object(id)
}

fn sorted(mut v: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    v.sort_by(|a, b| a.iter().cmp(b.iter()));
    v
}

/// Highlights of a single-relation answer on `pic`: each distinct
/// object of the rows (looked up by name in `things`), once.
fn check_highlights(db: &PictorialDatabase, result: &ResultSet) {
    let pic = db.picture("pic").expect("picture exists");
    let mut objects: Vec<u64> = Vec::new();
    for row in &result.rows {
        let ptr = tuples(db, "things")
            .into_iter()
            .find(|(name, _)| *name == row[0])
            .and_then(|(_, ptr)| ptr)
            .expect("row has a pointer");
        if !objects.contains(&ptr) {
            objects.push(ptr);
        }
    }
    let got: Vec<(u64, &str)> = result
        .highlights
        .iter()
        .map(|h| {
            assert_eq!(h.picture, "pic");
            (h.object, h.label.as_str())
        })
        .collect();
    let want: Vec<(u64, &str)> = objects
        .iter()
        .map(|&o| (o, pic.label(o).unwrap_or("")))
        .collect();
    assert_eq!(got, want, "highlights follow row order, once per object");
}

/// Every query shape against the brute-force mapping.
fn check_against_brute_force(db: &PictorialDatabase, seed: u64) {
    let things = tuples(db, "things");
    let zones = tuples(db, "zones");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);

    // Windows, under every operator.
    for _ in 0..12 {
        let (cx, cy) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let (dx, dy) = (rng.gen_range(1.0..30.0), rng.gen_range(1.0..30.0));
        let window = Rect::new(cx - dx, cy - dy, cx + dx, cy + dy);
        for (op, text) in [
            (SpatialOp::CoveredBy, "covered-by"),
            (SpatialOp::Overlapping, "overlapping"),
            (SpatialOp::Disjoined, "disjoined"),
        ] {
            let q = format!(
                "select name from things on pic at loc {text} {{{cx} +- {dx}, {cy} +- {dy}}}"
            );
            let got = query(db, &q).unwrap_or_else(|e| panic!("{q}: {e}"));
            let want: Vec<Vec<Value>> = things
                .iter()
                .filter(|(_, ptr)| {
                    ptr.and_then(|p| object(db, "pic", p))
                        .is_some_and(|o| op.eval_window(o, &window))
                })
                .map(|(name, _)| vec![name.clone()])
                .collect();
            assert_eq!(sorted(got.rows.clone()), sorted(want), "{q}");
            check_highlights(db, &got);
        }
    }

    // k-NN: the k nearest objects in distance order, each object's
    // tuples in insertion order; objects without tuples still count.
    let pic = db.picture("pic").expect("picture exists");
    for k in [1, 7, 40] {
        let q_at = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let q = format!(
            "select name from things on pic at loc nearest {k} {{{} +- 0, {} +- 0}}",
            q_at.x, q_at.y
        );
        let got = query(db, &q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let mut ids: Vec<u64> = pic.object_ids().collect();
        ids.sort_by(|&a, &b| {
            let d = |id| {
                object(db, "pic", id)
                    .expect("live id")
                    .mbr()
                    .min_distance_sq(q_at)
            };
            d(a).total_cmp(&d(b))
        });
        let want: Vec<Vec<Value>> = ids
            .iter()
            .take(k)
            .flat_map(|&id| {
                things
                    .iter()
                    .filter(move |(_, ptr)| *ptr == Some(id))
                    .map(|(name, _)| vec![name.clone()])
            })
            .collect();
        assert_eq!(got.rows, want, "{q}");
        check_highlights(db, &got);
    }

    // Nested mapping: things covered by zones overlapping a window.
    let inner_window = Rect::new(30.0, 20.0, 70.0, 60.0);
    let q = "select name from things on pic at loc covered-by \
             (select zones.loc from zones on zone-pic \
              at zones.loc overlapping {50 +- 20, 40 +- 20})";
    let got = query(db, q).unwrap_or_else(|e| panic!("{q}: {e}"));
    let inner: Vec<&SpatialObject> = zones
        .iter()
        .filter_map(|(_, ptr)| ptr.and_then(|p| object(db, "zone-pic", p)))
        .filter(|z| SpatialOp::Overlapping.eval_window(z, &inner_window))
        .collect();
    let want: Vec<Vec<Value>> = things
        .iter()
        .filter(|(_, ptr)| {
            ptr.and_then(|p| object(db, "pic", p)).is_some_and(|o| {
                inner
                    .iter()
                    .any(|z| SpatialOp::CoveredBy.eval_objects(o, z))
            })
        })
        .map(|(name, _)| vec![name.clone()])
        .collect();
    assert!(!want.is_empty(), "nested case must qualify some rows");
    assert_eq!(sorted(got.rows.clone()), sorted(want), "{q}");
    check_highlights(db, &got);

    // Juxtaposition: every (thing, zone) tuple pair whose objects relate.
    let q = "select name, zone from things, zones on pic, zone-pic \
             at things.loc covered-by zones.loc";
    let got = query(db, q).unwrap_or_else(|e| panic!("{q}: {e}"));
    let mut want = Vec::new();
    for (name, tp) in &things {
        for (zone, zp) in &zones {
            let pair = tp
                .and_then(|p| object(db, "pic", p))
                .zip(zp.and_then(|p| object(db, "zone-pic", p)));
            if pair.is_some_and(|(t, z)| SpatialOp::CoveredBy.eval_objects(t, z)) {
                want.push(vec![name.clone(), zone.clone()]);
            }
        }
    }
    assert!(!want.is_empty(), "juxtaposition must qualify some pairs");
    assert_eq!(sorted(got.rows.clone()), sorted(want), "{q}");

    // Full scan: highlights in tuple order, dangling pointers included
    // with an empty label, each (picture, object) once.
    let got = query(db, "select name, loc from things").expect("scan");
    let mut want: Vec<(u64, String)> = Vec::new();
    for (_, ptr) in &things {
        if let Some(p) = ptr {
            if !want.iter().any(|(o, _)| o == p) {
                want.push((*p, pic.label(*p).unwrap_or("").to_owned()));
            }
        }
    }
    let highlights: Vec<(u64, String)> = got
        .highlights
        .iter()
        .map(|h| (h.object, h.label.clone()))
        .collect();
    assert_eq!(highlights, want);
}

/// `tuples_of_object` for every object and both associations of `pic`.
fn check_tuples_of_object(db: &PictorialDatabase) {
    for relation in ["things", "late"] {
        let rows: Vec<(TupleId, Option<u64>)> = db
            .catalog()
            .relation(relation)
            .expect("relation exists")
            .scan()
            .map(|(tid, t)| (tid, t[1].as_pointer()))
            .collect();
        for id in (0..N + 20).chain([u64::MAX]) {
            let want: Vec<TupleId> = rows
                .iter()
                .filter(|(_, p)| *p == Some(id))
                .map(|(tid, _)| *tid)
                .collect();
            assert_eq!(
                db.tuples_of_object(relation, "loc", id),
                want.as_slice(),
                "{relation} object {id}"
            );
        }
    }
}

#[test]
fn every_query_shape_matches_brute_force_backlinks() {
    for seed in [1985, 7] {
        let db = build(seed);
        check_tuples_of_object(&db);
        check_against_brute_force(&db, seed);

        // The fixture covers each case it claims to.
        let counts: Vec<usize> = (0..N)
            .map(|i| db.tuples_of_object("things", "loc", i).len())
            .collect();
        for c in [0, 1, 2] {
            assert!(counts.contains(&c), "some object has {c} tuples");
        }
        assert_eq!(db.tuples_of_object("things", "loc", u64::MAX).len(), 1);
        assert_eq!(db.tuples_of_object("things", "loc", N + 3).len(), 1);
        assert_eq!(db.tuples_of_object("late", "loc", N + 10).len(), 1);
        assert_eq!(db.tuples_of_object("late", "loc", 5).len(), 1);
    }
}

#[test]
fn picture_growing_past_a_dangling_pointer_keeps_its_tuples() {
    let mut db = build(42);
    let past = db.tuples_of_object("things", "loc", N + 3).to_vec();
    for i in N..N + 5 {
        let id = db
            .add_object(
                "pic",
                SpatialObject::Point(Point::new(1.0, 1.0)),
                &format!("o{i}"),
            )
            .expect("picture exists");
        assert_eq!(id, i);
    }
    // Object N + 3 now exists; a new tuple joins the earlier one.
    let tid = db
        .insert("things", vec!["grown".into(), Value::Pointer(N + 3)])
        .expect("valid tuple");
    let want: Vec<TupleId> = past.iter().copied().chain([tid]).collect();
    assert_eq!(db.tuples_of_object("things", "loc", N + 3), want.as_slice());
    check_tuples_of_object(&db);
    check_against_brute_force(&db, 42);
}

#[test]
fn mutating_a_clone_leaves_the_original_unchanged() {
    let db = build(3141);
    let texts = [
        "select name from things on pic at loc covered-by {50 +- 30, 50 +- 30}",
        "select name from things on pic at loc nearest 25 {40 +- 0, 60 +- 0}",
        "select name, zone from things, zones on pic, zone-pic at things.loc covered-by zones.loc",
        "select name, loc from things",
    ];
    let answers = |db: &PictorialDatabase| -> Vec<ResultSet> {
        texts
            .iter()
            .map(|t| query(db, t).unwrap_or_else(|e| panic!("{t}: {e}")))
            .collect()
    };
    let before = answers(&db);

    let mut copy = db.clone();
    for i in 0..N {
        if i % 3 == 0 {
            copy.insert("things", vec![format!("c{i}").into(), Value::Pointer(i)])
                .expect("valid tuple");
        }
    }
    let doomed: Vec<TupleId> = (0..N)
        .filter(|i| i % 5 == 0)
        .flat_map(|i| copy.tuples_of_object("things", "loc", i).to_vec())
        .collect();
    for tid in doomed {
        copy.delete("things", tid).expect("live tuple");
    }
    copy.insert("things", vec!["c-far".into(), Value::Pointer(u64::MAX)])
        .expect("valid tuple");

    assert_eq!(answers(&db), before, "the original answers as before");
    assert_ne!(answers(&copy), before, "the copy sees its own writes");
    check_tuples_of_object(&db);
    check_tuples_of_object(&copy);
    check_against_brute_force(&copy, 3141);
}

#[test]
fn highlights_follow_association_declaration_order() {
    // Two loc columns of one relation, into two pictures: each row
    // highlights its `src` object, then its `dst` object — the order the
    // associations were declared in, in every process.
    let mut db = PictorialDatabase::new(RTreeConfig::PAPER);
    db.create_picture("pic-a", frame()).expect("fresh picture");
    db.create_picture("pic-b", frame()).expect("fresh picture");
    relation(
        &mut db,
        "routes",
        &[
            ("name", ColumnType::Str),
            ("src", ColumnType::Pointer),
            ("dst", ColumnType::Pointer),
        ],
    );
    db.associate("routes", "src", "pic-a").expect("association");
    db.associate("routes", "dst", "pic-b").expect("association");
    for i in 0..3u64 {
        let p = SpatialObject::Point(Point::new(10.0 * i as f64, 5.0));
        let a = db
            .add_object("pic-a", p.clone(), &format!("a{i}"))
            .expect("picture");
        let b = db
            .add_object("pic-b", p, &format!("b{i}"))
            .expect("picture");
        db.insert(
            "routes",
            vec![format!("r{i}").into(), Value::Pointer(a), Value::Pointer(b)],
        )
        .expect("valid tuple");
    }
    // A second route reusing a0 → b2 adds no new highlight.
    db.insert(
        "routes",
        vec!["r3".into(), Value::Pointer(0), Value::Pointer(2)],
    )
    .expect("valid tuple");
    db.pack_all();
    assert_eq!(
        db.loc_columns("routes"),
        [("src", "pic-a"), ("dst", "pic-b")]
    );

    let result = query(&db, "select name from routes").expect("scan");
    let got: Vec<(&str, u64, &str)> = result
        .highlights
        .iter()
        .map(|h| (h.picture.as_str(), h.object, h.label.as_str()))
        .collect();
    assert_eq!(
        got,
        [
            ("pic-a", 0, "a0"),
            ("pic-b", 0, "b0"),
            ("pic-a", 1, "a1"),
            ("pic-b", 1, "b1"),
            ("pic-a", 2, "a2"),
            ("pic-b", 2, "b2"),
        ]
    );

    // The same order through a spatial search on the second column.
    let result = query(
        &db,
        "select name from routes on pic-b at dst covered-by {20 +- 1, 5 +- 1}",
    )
    .expect("window");
    let got: Vec<(&str, u64)> = result
        .highlights
        .iter()
        .map(|h| (h.picture.as_str(), h.object))
        .collect();
    assert_eq!(got, [("pic-a", 2), ("pic-b", 2), ("pic-a", 0)]);
}
