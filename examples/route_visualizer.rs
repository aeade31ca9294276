//! ASCII visualization of a routed mesh: faulty blocks, MCC labels,
//! boundary lines, and the minimal path Wu's protocol takes around them.
//!
//! Run with `cargo run --example route_visualizer [seed]`.

use emr2d::core::conditions;
use emr2d::distsim::protocols::boundary;
use emr2d::mesh::Grid;
use emr2d::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(11);
    let mesh = Mesh::square(28);
    let s = Coord::new(2, 2);

    // Clustered faults make visually interesting blocks.
    let mut rng = StdRng::seed_from_u64(seed);
    let faults = inject::clustered(mesh, 26, 3, 2.0, &[s], &mut rng);
    let scenario = Scenario::build(faults);
    let view = scenario.view(Model::FaultBlock);
    let boundary = scenario.boundary_map(Model::FaultBlock);

    // Find a far destination with a guaranteed route.
    let d = mesh
        .nodes()
        .filter(|&d| d.x >= 20 && d.y >= 20 && !view.is_obstacle(d, s, d))
        .find(|&d| conditions::strategy4(&view, s, d).is_some())
        .expect("some guaranteed destination");
    let ensured = conditions::strategy4(&view, s, d).expect("checked above");
    let path = emr2d::core::route::execute(&view, &boundary, s, d, &ensured.plan())
        .expect("ensured routes succeed");

    println!(
        "seed {seed}: {} blocks, plan {:?}, {} hops\n",
        scenario.blocks().rects().len(),
        ensured.plan(),
        path.hops()
    );
    // The router keeps only the straight runs of each contour; the full
    // contours, bend steps included, come from the global ray walk.
    let blocked = Grid::from_fn(mesh, |c| scenario.blocks().is_blocked(c));
    let contours = boundary::compute_global(&mesh, scenario.blocks().rects(), &blocked);
    println!("{}", render(&scenario, &contours, &path, s, d));
    println!("legend: S source, D destination, * path, X faulty, o disabled,");
    println!("        . boundary line, (blank) healthy");
}

fn render(
    scenario: &Scenario,
    contours: &Grid<Vec<boundary::BoundaryMark>>,
    path: &Path,
    s: Coord,
    d: Coord,
) -> String {
    let mesh = scenario.mesh();
    let mut out = String::new();
    for y in (0..mesh.height()).rev() {
        for x in 0..mesh.width() {
            let c = Coord::new(x, y);
            let ch = if c == s {
                'S'
            } else if c == d {
                'D'
            } else if path.nodes().contains(&c) {
                '*'
            } else if scenario.faults().is_faulty(c) {
                'X'
            } else if scenario.blocks().is_blocked(c) {
                'o'
            } else if !contours[c].is_empty() {
                '.'
            } else {
                ' '
            };
            out.push(ch);
            out.push(' ');
        }
        out.push('\n');
    }
    out
}
