//! Pinned outputs, one row per input variant (see
//! [`crate::workloads::VARIANTS`]). Scenario pins are the trace hash and
//! event count of an uninterrupted `ScenarioRunner::run` of the spec;
//! office pins are exact ζ and the two selected capacity sets. Regenerate
//! with `perfbench --pin > src/pins.rs` and `cargo fmt` after an
//! intentional change to a workload's shape.

/// A scenario run's pinned digest fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioPin {
    /// The engine's rolling delivery-trace hash.
    pub hash: u64,
    /// Engine events dispatched.
    pub events: u64,
}

/// The office pipeline's pinned answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfficePin {
    /// Exact metricity of the measured space.
    pub zeta: f64,
    /// Algorithm 1's selected set: bit `i` is set when link `i` is in it.
    pub algorithm1: u64,
    /// Greedy's selected set, as a bit mask like `algorithm1`.
    pub greedy: u64,
}

/// `static-100k`, by variant.
pub const STATIC: [ScenarioPin; 16] = [
    ScenarioPin {
        hash: 0x456fc53eed7daba3,
        events: 1650856,
    },
    ScenarioPin {
        hash: 0x89859c80332f5863,
        events: 1655073,
    },
    ScenarioPin {
        hash: 0xc3e6f9795d1ab261,
        events: 1652154,
    },
    ScenarioPin {
        hash: 0xe637a1dabe4fd502,
        events: 1651488,
    },
    ScenarioPin {
        hash: 0x1e6098d321d16a4e,
        events: 1658797,
    },
    ScenarioPin {
        hash: 0xb94f9db05079bf0a,
        events: 1648123,
    },
    ScenarioPin {
        hash: 0xd46cb6bbd7c13e29,
        events: 1647463,
    },
    ScenarioPin {
        hash: 0x830bd9e4bfe661f6,
        events: 1653909,
    },
    ScenarioPin {
        hash: 0x1992755c09a742f3,
        events: 1654718,
    },
    ScenarioPin {
        hash: 0xf8a71a73e7531aa3,
        events: 1657688,
    },
    ScenarioPin {
        hash: 0x48ed4669fcf9c5f6,
        events: 1654754,
    },
    ScenarioPin {
        hash: 0x45482168bb084e0a,
        events: 1651664,
    },
    ScenarioPin {
        hash: 0x3d1f61e7673eb2aa,
        events: 1649707,
    },
    ScenarioPin {
        hash: 0xd76b16013925a637,
        events: 1652787,
    },
    ScenarioPin {
        hash: 0xc5345c27e5b19db0,
        events: 1656126,
    },
    ScenarioPin {
        hash: 0x3a4f7c3ca7830f11,
        events: 1655107,
    },
];

/// `mobility-20k`, by variant.
pub const MOBILITY: [ScenarioPin; 16] = [
    ScenarioPin {
        hash: 0xa99720ba0cd0300f,
        events: 648856,
    },
    ScenarioPin {
        hash: 0xd5f8e63c653c0679,
        events: 649539,
    },
    ScenarioPin {
        hash: 0x2c87f34f0f55cc26,
        events: 646500,
    },
    ScenarioPin {
        hash: 0xb18daa1b4cb25ce2,
        events: 647293,
    },
    ScenarioPin {
        hash: 0xd1dc14a657a5055e,
        events: 649572,
    },
    ScenarioPin {
        hash: 0x3e4b72c94ae07a95,
        events: 648093,
    },
    ScenarioPin {
        hash: 0x6cce433622005e2c,
        events: 648349,
    },
    ScenarioPin {
        hash: 0x10176a69bcfb4d98,
        events: 649362,
    },
    ScenarioPin {
        hash: 0x18a266477523cb66,
        events: 646350,
    },
    ScenarioPin {
        hash: 0xfcad520e01db4cc6,
        events: 648641,
    },
    ScenarioPin {
        hash: 0x7b08b0323bfcd45d,
        events: 648434,
    },
    ScenarioPin {
        hash: 0x17d14901511f3942,
        events: 649567,
    },
    ScenarioPin {
        hash: 0x0c5acc47e6f9d42b,
        events: 647546,
    },
    ScenarioPin {
        hash: 0xeeedf167cd911251,
        events: 648009,
    },
    ScenarioPin {
        hash: 0xa2db003eda583053,
        events: 647177,
    },
    ScenarioPin {
        hash: 0x8a47501e8f89bdb2,
        events: 648418,
    },
];

/// `preempt-rr`, by variant: one pin per distinct spec.
pub const PREEMPT: [[ScenarioPin; 2]; 16] = [
    [
        ScenarioPin {
            hash: 0x1d3ece05b1405a35,
            events: 255810,
        },
        ScenarioPin {
            hash: 0x3f4eff1c454e99ae,
            events: 255703,
        },
    ],
    [
        ScenarioPin {
            hash: 0x1f72f4d96c6491cb,
            events: 256752,
        },
        ScenarioPin {
            hash: 0x4220b7bc2b60f94b,
            events: 257394,
        },
    ],
    [
        ScenarioPin {
            hash: 0x5e11365be9d1447f,
            events: 255902,
        },
        ScenarioPin {
            hash: 0xf592dfd72c4b169e,
            events: 255459,
        },
    ],
    [
        ScenarioPin {
            hash: 0xfa1565c464a73476,
            events: 255724,
        },
        ScenarioPin {
            hash: 0xef8fd349be3d3d6d,
            events: 255032,
        },
    ],
    [
        ScenarioPin {
            hash: 0x5ca051a30fd361f1,
            events: 255597,
        },
        ScenarioPin {
            hash: 0x0885e4324923ca29,
            events: 255379,
        },
    ],
    [
        ScenarioPin {
            hash: 0x1f8327fc518f3ded,
            events: 255186,
        },
        ScenarioPin {
            hash: 0x3a3cee25958a997a,
            events: 256468,
        },
    ],
    [
        ScenarioPin {
            hash: 0xf3971d6b474a9f99,
            events: 256476,
        },
        ScenarioPin {
            hash: 0x65d6f3e4c8a39083,
            events: 256183,
        },
    ],
    [
        ScenarioPin {
            hash: 0x4e27461b70f2c1be,
            events: 256376,
        },
        ScenarioPin {
            hash: 0x35317c8c317e608e,
            events: 255984,
        },
    ],
    [
        ScenarioPin {
            hash: 0x64ef57db324a93d3,
            events: 255922,
        },
        ScenarioPin {
            hash: 0x1e71c0c889417391,
            events: 256513,
        },
    ],
    [
        ScenarioPin {
            hash: 0xf2c5e70716338022,
            events: 256011,
        },
        ScenarioPin {
            hash: 0x2b495805e4e4411d,
            events: 256524,
        },
    ],
    [
        ScenarioPin {
            hash: 0x40fc8933fba2b579,
            events: 256476,
        },
        ScenarioPin {
            hash: 0xe8345a58a377e775,
            events: 256536,
        },
    ],
    [
        ScenarioPin {
            hash: 0x489c91fd3d578237,
            events: 256137,
        },
        ScenarioPin {
            hash: 0x308607e75bd20aef,
            events: 257279,
        },
    ],
    [
        ScenarioPin {
            hash: 0x10b84af0027f8e96,
            events: 256691,
        },
        ScenarioPin {
            hash: 0xdfdc22e82bd359e6,
            events: 256378,
        },
    ],
    [
        ScenarioPin {
            hash: 0x164c37499f7e5fdf,
            events: 255549,
        },
        ScenarioPin {
            hash: 0xbf9998f598aeaedf,
            events: 255487,
        },
    ],
    [
        ScenarioPin {
            hash: 0x5eff37d86459fcd4,
            events: 256207,
        },
        ScenarioPin {
            hash: 0x0a6384c35ead0b06,
            events: 255812,
        },
    ],
    [
        ScenarioPin {
            hash: 0x0a2f2d5e396f7a10,
            events: 256688,
        },
        ScenarioPin {
            hash: 0xcbcef84313ab2da2,
            events: 256883,
        },
    ],
];

/// `office-capacity`, by variant.
pub const OFFICE: [OfficePin; 16] = [
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400000000,
        greedy: 0x551684504,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400000000,
        greedy: 0x451281451,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400000000,
        greedy: 0x511480480,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400,
        greedy: 0x111112405,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400,
        greedy: 0x111502444,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400000000,
        greedy: 0x451511205,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400000000,
        greedy: 0x405402208,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x100000000,
        greedy: 0x149092204,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x4,
        greedy: 0x249084405,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400,
        greedy: 0x415092510,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400000000,
        greedy: 0x511292405,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x1000000,
        greedy: 0x551480509,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400,
        greedy: 0x209290445,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400000000,
        greedy: 0x515482200,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400000000,
        greedy: 0x411311504,
    },
    OfficePin {
        zeta: 11.544061053450154,
        algorithm1: 0x400,
        greedy: 0x511290444,
    },
];
