// virtual-path: crates/nn/src/fixture_spawn.rs
// BAD: raw thread creation outside comm / the threaded backend — the race
// checker cannot inject schedules into threads it cannot see.

pub fn background_update(mut params: Vec<f32>) {
    std::thread::spawn(move || {
        for p in params.iter_mut() {
            *p *= 0.99;
        }
    });
}

pub fn named_background() {
    let _ = std::thread::Builder::new().name("rogue".into());
}

pub fn scoped_halves(xs: &mut [f32]) {
    let (lo, hi) = xs.split_at_mut(xs.len() / 2);
    std::thread::scope(|s| {
        s.spawn(|| lo.iter_mut().for_each(|x| *x *= 0.99));
        hi.iter_mut().for_each(|x| *x *= 0.99);
    });
}
