//! Fixture: one RNG stream consumed from inside rayon parallel closures.
//! Both the `&mut`-capture and the direct method call must be flagged; the
//! scheduling order decides which task draws which sample. The parser rule
//! `rng-provenance` also flags the `rng` parameter captured in `perturb`.

pub fn scores(items: &[u64], rng: &mut SmallRng) -> Vec<f64> {
    let mut shared_rng = SmallRng::seed_from_u64(rng.next_u64());
    items
        .par_iter()
        .map(|&item| {
            let noise = sample_noise(&mut shared_rng);
            item as f64 + noise
        })
        .collect()
}

pub fn perturb(cells: &mut [f64], rng: &mut SmallRng) {
    cells.par_chunks_mut(64).for_each(|chunk| {
        for c in chunk.iter_mut() {
            *c += rng.gen::<f64>();
        }
    });
}
