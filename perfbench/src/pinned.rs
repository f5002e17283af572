//! Correctness fingerprints of the default inputs (`--seed 0`).
//!
//! The model is not validated against real Optane or Enzian hardware, so
//! these pin identity only: a pure speed-up must reproduce every value
//! exactly. `figures-quick` takes no seed, so its CSV hashes apply to
//! every seed.

use crate::work::Scale;

/// The pinned `(operation, fingerprint)` pairs of `workload` at `scale`.
pub fn fingerprints(workload: &str, scale: Scale) -> &'static [(&'static str, &'static str)] {
    match (workload, scale) {
        ("advisor-a", Scale::Full) => ADVISOR_A,
        ("seqwrite-a", Scale::Full) => SEQWRITE_A,
        ("kv-stream-b", Scale::Full) => KV_STREAM_B,
        ("figures-quick", Scale::Full) => FIGURES_QUICK,
        ("advisor-a", Scale::Tiny) => ADVISOR_A_TINY,
        ("seqwrite-a", Scale::Tiny) => SEQWRITE_A_TINY,
        ("kv-stream-b", Scale::Tiny) => KV_STREAM_B_TINY,
        ("figures-quick", Scale::Tiny) => FIGURES_QUICK_TINY,
        _ => &[],
    }
}

const ADVISOR_A: &[(&str, &str)] = &[
    (
        "MG/baseline",
        "cycles=3740568 recv=1811968 media=2730496 plan=3",
    ),
    (
        "MG/patched",
        "cycles=4233133 recv=1996800 media=2099200 plan=3",
    ),
    (
        "tensor/baseline",
        "cycles=4099120 recv=5782720 media=18368000 plan=1",
    ),
    (
        "tensor/patched",
        "cycles=3844765 recv=6724096 media=11431680 plan=1",
    ),
    (
        "x9/baseline",
        "cycles=1468015 recv=18432 media=20480 plan=1",
    ),
    ("x9/patched", "cycles=1757111 recv=18432 media=20480 plan=1"),
    (
        "CLHT/baseline",
        "cycles=4413728 recv=6284352 media=19603200 plan=1",
    ),
    (
        "CLHT/patched",
        "cycles=2399238 recv=6283456 media=6731008 plan=1",
    ),
    (
        "Masstree/baseline",
        "cycles=4561802 recv=6585024 media=20175616 plan=2",
    ),
    (
        "Masstree/patched",
        "cycles=3406997 recv=6589632 media=7479808 plan=2",
    ),
];

const SEQWRITE_A: &[(&str, &str)] = &[
    (
        "elem64/baseline",
        "cycles=29194434 recv=33554240 media=133422592",
    ),
    (
        "elem64/clean",
        "cycles=29349506 recv=33554240 media=134166784",
    ),
    (
        "elem256/baseline",
        "cycles=25249226 recv=33553920 media=114787840",
    ),
    (
        "elem256/clean",
        "cycles=6990400 recv=33553920 media=33553920",
    ),
    (
        "elem1024/baseline",
        "cycles=25278709 recv=33551360 media=114928896",
    ),
    (
        "elem1024/clean",
        "cycles=6989866 recv=33551360 media=33551360",
    ),
    (
        "elem4096/baseline",
        "cycles=25311680 recv=33546240 media=115069440",
    ),
    (
        "elem4096/clean",
        "cycles=6988800 recv=33546240 media=33546240",
    ),
];

const KV_STREAM_B: &[(&str, &str)] = &[
    (
        "serving/clean",
        "digest=fcceb45f5b9bf6ba cycles=138802808 get_hot=120/120 get_cold=120/120 \
         put_hot=208/208 put_cold=190/190",
    ),
    ("serving/feed", "digest=fcceb45f5b9bf6ba"),
];

const FIGURES_QUICK: &[(&str, &str)] = &[
    ("table1", "csv=6fb990577714a3a3"),
    ("table2", "csv=9e47971991c6f55f"),
    ("fig3a", "csv=23ce8b663d6015fa"),
    ("fig3b", "csv=bea30dc6b91ad466"),
    ("fig5", "csv=c7b78b1e58906c44"),
    ("fig7", "csv=c4de40ab36a1d295"),
    ("fig8", "csv=2e983d67713a4f4c"),
    ("fig9", "csv=9dfc11ac9ed64e63"),
    ("fig10", "csv=72d83bd665222fa5"),
    ("fig11", "csv=bc4712940eeb6c7d"),
    ("fig12", "csv=8dff672894bdf33e"),
    ("fig13", "csv=7164a2d5604d375b"),
    ("fig14", "csv=8c2d661f4ef64729"),
    ("x9", "csv=4c135f7fc3197b09"),
    ("listing3", "csv=a78ad4167b23aa1e"),
    ("skipvariant", "csv=29cb1cc04b3fa05c"),
    ("issuecost", "csv=37e95854b341e154"),
    ("overheadB", "csv=f964888a57975f8e"),
    ("badprestores", "csv=0446baa8223eb9d4"),
    ("dbreports", "csv=cdf0491eafc8304c"),
    ("abl_granularity", "csv=1499098d097fda17"),
    ("abl_replacement", "csv=9b3059dcdc33d02e"),
    ("abl_latency", "csv=1473b5bfe46f048b"),
    ("abl_ycsb_mix", "csv=eea24a5a7bf70edf"),
    ("abl_dram", "csv=e80cd358655bba58"),
    ("ext_cxl_kv", "csv=21113d96ea944180"),
    ("crashbuster", "csv=64955cbedd459ca4"),
    ("kv_serving", "csv=f6c907bd9e996e57"),
    ("autotune", "csv=6d9867f548d1ecdd"),
];

const ADVISOR_A_TINY: &[(&str, &str)] = &[
    ("MG/baseline", "cycles=123777 recv=54784 media=63488 plan=0"),
    ("MG/patched", "cycles=123777 recv=54784 media=63488 plan=0"),
    (
        "tensor/baseline",
        "cycles=124448 recv=82176 media=200960 plan=1",
    ),
    (
        "tensor/patched",
        "cycles=124450 recv=82176 media=200960 plan=1",
    ),
    ("x9/baseline", "cycles=34919 recv=2048 media=3072 plan=1"),
    ("x9/patched", "cycles=35143 recv=2048 media=3072 plan=1"),
    (
        "CLHT/baseline",
        "cycles=192056 recv=71616 media=79104 plan=2",
    ),
    (
        "CLHT/patched",
        "cycles=179752 recv=71616 media=79104 plan=2",
    ),
    (
        "Masstree/baseline",
        "cycles=276189 recv=85120 media=85248 plan=2",
    ),
    (
        "Masstree/patched",
        "cycles=261453 recv=85120 media=85248 plan=2",
    ),
];

const SEQWRITE_A_TINY: &[(&str, &str)] = &[
    (
        "elem64/baseline",
        "cycles=606466 recv=1048320 media=1048576",
    ),
    ("elem64/clean", "cycles=906186 recv=1048320 media=4140032"),
    (
        "elem256/baseline",
        "cycles=218400 recv=1048320 media=1048320",
    ),
    ("elem256/clean", "cycles=218400 recv=1048320 media=1048320"),
    (
        "elem1024/baseline",
        "cycles=217600 recv=1044480 media=1044480",
    ),
    ("elem1024/clean", "cycles=217600 recv=1044480 media=1044480"),
    (
        "elem4096/baseline",
        "cycles=217600 recv=1044480 media=1044480",
    ),
    ("elem4096/clean", "cycles=217600 recv=1044480 media=1044480"),
];

const KV_STREAM_B_TINY: &[(&str, &str)] = &[
    (
        "serving/clean",
        "digest=9f91639abf14468d cycles=469566 get_hot=15/120 get_cold=120/120 \
         put_hot=127/183 put_cold=183/183",
    ),
    ("serving/feed", "digest=9f91639abf14468d"),
];

const FIGURES_QUICK_TINY: &[(&str, &str)] = &[
    ("table1", "csv=6fb990577714a3a3"),
    ("listing3", "csv=a78ad4167b23aa1e"),
];
