//! Serde round-trips for the data-structure types (C-SERDE): geometry and
//! fault-model values must survive serialization so recorded experiment
//! artifacts and cross-process uses are trustworthy.

use emr2d::fault::{MccStatus, NodeState};
use emr2d::prelude::*;

/// Serializes and deserializes `value`, checks the two are equal, and
/// returns the deserialized copy.
fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("serializes");
    let back: T = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(&back, value, "round-trip changed the value");
    back
}

#[test]
fn geometry_types_roundtrip() {
    roundtrip(&Coord::new(-3, 17));
    roundtrip(&Direction::West);
    roundtrip(&Quadrant::III);
    roundtrip(&Rect::new(2, 6, 3, 6));
    roundtrip(&Mesh::new(200, 100));
    roundtrip(&Frame::normalizing(Coord::new(5, 5), Coord::new(1, 9)));
    roundtrip(&Path::new(vec![Coord::new(0, 0), Coord::new(0, 1)]));
}

#[test]
fn fault_model_types_roundtrip() {
    let mesh = Mesh::square(8);
    let faults = FaultSet::from_coords(mesh, [Coord::new(2, 2), Coord::new(3, 3)]);
    roundtrip(&faults);
    roundtrip(&BlockMap::build(&faults));
    roundtrip(&MccMap::build(&faults, MccType::One));
    roundtrip(&MccType::Two);

    // (2,2) is disabled under blocks and useless under type one, then
    // fails. The maps keep no separate MCC fault plane, so the copy must
    // read the fault back off its planes alone.
    let corner = FaultSet::from_coords(mesh, [Coord::new(2, 3), Coord::new(3, 2)]);
    let pocket = Coord::new(2, 2);
    let mut blocks = BlockMap::build(&corner);
    let mut one = MccMap::build(&corner, MccType::One);
    assert_eq!(blocks.state(pocket), NodeState::Disabled);
    assert_eq!(one.status(pocket), MccStatus::Useless);
    blocks.insert_fault(pocket);
    one.insert_fault(pocket);
    assert_eq!(roundtrip(&blocks).state(pocket), NodeState::Faulty);
    assert_eq!(roundtrip(&one).status(pocket), MccStatus::Faulty);
}

#[test]
fn core_types_roundtrip() {
    roundtrip(&SafetyLevel::new(1, 2, 3, emr2d::mesh::UNBOUNDED));
    roundtrip(&Model::Mcc);
    roundtrip(&RoutePlan::ViaPivot(Coord::new(4, 5)));
    roundtrip(&Ensured::SubMinimal(RoutePlan::ViaNeighbor(Coord::new(
        1, 0,
    ))));
    roundtrip(&SegmentSize::Size(5));
    let mesh = Mesh::square(6);
    let sc = Scenario::build(FaultSet::from_coords(mesh, [Coord::new(3, 3)]));
    // Safety maps are data too.
    let view = sc.view(Model::FaultBlock);
    let level = view.level_for(Coord::new(0, 3), Coord::new(0, 3), Coord::new(5, 5));
    roundtrip(&level);
}

#[test]
fn mesh3_types_roundtrip() {
    use emr2d::mesh3::{Coord3, Mesh3};
    roundtrip(&Coord3::new(1, -2, 3));
    roundtrip(&Mesh3::cube(9));
}
