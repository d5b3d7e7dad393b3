//! The seeded IL generator: every program type-checks, sources are unique
//! within a seed's stream, each family stays inside its size bound, and a
//! seed always yields the same bytes.

use adds_perfbench::gen::{self, Family, Rng, WIDE_MAX_VARS, WIDE_MIN_VARS};
use std::collections::{HashMap, HashSet};

const SEEDS: [u64; 3] = [1, 2, 0x5EED_BEEF];
const PER_SEED: u64 = 240;

fn stream(seed: u64) -> impl Iterator<Item = gen::Program> {
    (0..PER_SEED).map(move |i| gen::program(seed, i))
}

#[test]
fn every_program_type_checks() {
    for seed in SEEDS {
        for (i, p) in stream(seed).enumerate() {
            if let Err(d) = adds_lang::check_source(&p.source) {
                panic!(
                    "seed {seed} program {i} ({}) fails to type-check:\n{}\n{}",
                    p.family.name(),
                    d.render(&p.source),
                    p.source
                );
            }
        }
    }
}

#[test]
fn no_two_sources_share_a_sha256() {
    let setup = gen::setup_program();
    assert!(adds_lang::check_source(&setup.source).is_ok());
    for seed in SEEDS {
        let mut seen = HashSet::from([adds_query::sha::sha256(setup.source.as_bytes())]);
        for (i, p) in stream(seed).enumerate() {
            let digest = adds_query::sha::sha256(p.source.as_bytes());
            assert!(
                seen.insert(digest),
                "seed {seed}: program {i} repeats an earlier or the set-up source"
            );
        }
    }
}

#[test]
fn families_stay_inside_their_size_bounds() {
    let mut widths = HashSet::new();
    for seed in SEEDS {
        for p in stream(seed) {
            assert_eq!(p.pointer_vars, gen::count_pointer_vars(&p.source));
            match p.family {
                Family::Wide => {
                    assert!(
                        (WIDE_MIN_VARS..=WIDE_MAX_VARS).contains(&p.pointer_vars),
                        "wide program with {} pointer variables",
                        p.pointer_vars
                    );
                    widths.insert(p.pointer_vars);
                }
                Family::Chase => {
                    assert!(p.pointer_vars <= 13, "{} pointer variables", p.pointer_vars);
                    assert!(p.source.len() <= 2048, "{} bytes", p.source.len());
                }
                Family::Corpus => {
                    let original = p.original.expect("corpus programs name their original");
                    let (_, src) = gen::corpus().find(|(n, _)| *n == original).unwrap();
                    assert_eq!(p.pointer_vars, gen::count_pointer_vars(src));
                    assert!(p.source.len() <= 2 * src.len());
                }
            }
        }
    }
    // Three seeds of 80 wide programs each cover every width.
    assert_eq!(widths.len(), WIDE_MAX_VARS - WIDE_MIN_VARS + 1);
}

#[test]
fn a_seed_always_yields_the_same_bytes() {
    for seed in SEEDS {
        for i in (0..PER_SEED).step_by(7) {
            assert_eq!(gen::program(seed, i).source, gen::program(seed, i).source);
        }
    }
    let differ = (0..PER_SEED)
        .filter(|&i| gen::program(1, i).source != gen::program(2, i).source)
        .count();
    assert!(
        differ as u64 > PER_SEED * 9 / 10,
        "seeds 1 and 2 share {differ} sources"
    );
    let mut a = Rng::derive(9, 1, 4);
    let mut b = Rng::derive(9, 1, 4);
    for _ in 0..100 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

#[test]
fn every_stretch_of_the_stream_has_the_same_mix() {
    for seed in SEEDS {
        let mut counts: HashMap<&str, u64> = HashMap::new();
        for (i, p) in (0..99).map(|i| (i, gen::program(seed, i))) {
            assert_eq!(p.family, gen::family(i));
            *counts.entry(p.family.name()).or_default() += 1;
        }
        assert_eq!(counts["corpus"], 33);
        assert_eq!(counts["chase"], 33);
        assert_eq!(counts["wide"], 33);
    }
}

#[test]
fn stratified_blocks_hold_each_value_once() {
    for block in 0..4u64 {
        let mut seen: Vec<usize> = (0..51)
            .map(|k| gen::stratified(3, 7, block * 51 + k, 51))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..51).collect::<Vec<_>>());
    }
}
