// Must-flag fixture: reading wall clocks outside crates/bench. Expected: four
// no-wall-clock findings (two on the import, two in the body).

use std::time::{Instant, SystemTime};

pub fn measure() -> u64 {
    let start = Instant::now();
    let _epoch = SystemTime::now();
    start.elapsed().as_nanos() as u64
}
