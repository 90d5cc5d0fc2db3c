//! Shortest round-trip digits of an `f64`: Grisu3 in its shortest mode,
//! ported from the Rust standard library's `core::num::flt2dec`
//! (`strategy/grisu.rs`, with the parts of `decoder.rs` and
//! `num/diy_float.rs` it calls), which is MIT/Apache-2.0 like this crate.
//! The port keeps core's table, arithmetic and acceptance tests line for
//! line, so whenever [`shortest`] answers, its digits are the ones core's
//! `{}` prints for the same value; where Grisu cannot prove its answer
//! shortest and closest, it answers `None`, as core's does before core
//! falls back to Dragon4.

/// `f * 2^e`.
#[derive(Clone, Copy)]
struct Fp {
    f: u64,
    e: i16,
}

impl Fp {
    /// The product, rounded half up to 64 bits of mantissa.
    fn mul(self, other: Fp) -> Fp {
        let wide = u128::from(self.f) * u128::from(other.f);
        let (lo, hi) = (wide as u64, (wide >> 64) as u64);
        Fp {
            f: hi + (lo >> 63),
            e: self.e + other.e + 64,
        }
    }

    /// Shifted so the mantissa's top bit is set.
    fn normalize(self) -> Fp {
        let lz = self.f.leading_zeros();
        Fp {
            f: self.f << lz,
            e: self.e - lz as i16,
        }
    }

    /// Shifted to the smaller exponent `e`.
    fn normalize_to(self, e: i16) -> Fp {
        let edelta = self.e - e;
        debug_assert!(edelta >= 0 && self.f << edelta >> edelta == self.f);
        Fp {
            f: self.f << edelta,
            e,
        }
    }
}

/// A positive finite value `mant * 2^exp`, and the half-open neighbourhood
/// `(mant - minus, mant + plus) * 2^exp` of values that read back as it.
struct Decoded {
    mant: u64,
    minus: u64,
    plus: u64,
    exp: i16,
}

/// `v`, positive, finite and not zero, as core's `decoder::decode` splits it.
fn decode(v: f64) -> Decoded {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i16;
    let fraction = bits & ((1 << 52) - 1);
    let exp = biased - 1075;
    if biased == 0 {
        // Subnormal: neighbours are (mant - 2) and (mant + 2) at this scale.
        Decoded {
            mant: fraction << 1,
            minus: 1,
            plus: 1,
            exp,
        }
    } else if fraction == 0 {
        // A power of two: the neighbour below is half as far as the one above.
        Decoded {
            mant: (1 << 52) << 2,
            minus: 1,
            plus: 2,
            exp: exp - 2,
        }
    } else {
        Decoded {
            mant: (fraction | 1 << 52) << 1,
            minus: 1,
            plus: 1,
            exp: exp - 1,
        }
    }
}

// See `shortest` for the choice of these two.
const ALPHA: i16 = -60;
const GAMMA: i16 = -32;

/// `(f, e, k)`: the normalised `f * 2^e` nearest `10^k`, every eighth `k`.
static CACHED_POW10: [(u64, i16, i16); 81] = [
    (0xe61acf033d1a45df, -1087, -308),
    (0xab70fe17c79ac6ca, -1060, -300),
    (0xff77b1fcbebcdc4f, -1034, -292),
    (0xbe5691ef416bd60c, -1007, -284),
    (0x8dd01fad907ffc3c, -980, -276),
    (0xd3515c2831559a83, -954, -268),
    (0x9d71ac8fada6c9b5, -927, -260),
    (0xea9c227723ee8bcb, -901, -252),
    (0xaecc49914078536d, -874, -244),
    (0x823c12795db6ce57, -847, -236),
    (0xc21094364dfb5637, -821, -228),
    (0x9096ea6f3848984f, -794, -220),
    (0xd77485cb25823ac7, -768, -212),
    (0xa086cfcd97bf97f4, -741, -204),
    (0xef340a98172aace5, -715, -196),
    (0xb23867fb2a35b28e, -688, -188),
    (0x84c8d4dfd2c63f3b, -661, -180),
    (0xc5dd44271ad3cdba, -635, -172),
    (0x936b9fcebb25c996, -608, -164),
    (0xdbac6c247d62a584, -582, -156),
    (0xa3ab66580d5fdaf6, -555, -148),
    (0xf3e2f893dec3f126, -529, -140),
    (0xb5b5ada8aaff80b8, -502, -132),
    (0x87625f056c7c4a8b, -475, -124),
    (0xc9bcff6034c13053, -449, -116),
    (0x964e858c91ba2655, -422, -108),
    (0xdff9772470297ebd, -396, -100),
    (0xa6dfbd9fb8e5b88f, -369, -92),
    (0xf8a95fcf88747d94, -343, -84),
    (0xb94470938fa89bcf, -316, -76),
    (0x8a08f0f8bf0f156b, -289, -68),
    (0xcdb02555653131b6, -263, -60),
    (0x993fe2c6d07b7fac, -236, -52),
    (0xe45c10c42a2b3b06, -210, -44),
    (0xaa242499697392d3, -183, -36),
    (0xfd87b5f28300ca0e, -157, -28),
    (0xbce5086492111aeb, -130, -20),
    (0x8cbccc096f5088cc, -103, -12),
    (0xd1b71758e219652c, -77, -4),
    (0x9c40000000000000, -50, 4),
    (0xe8d4a51000000000, -24, 12),
    (0xad78ebc5ac620000, 3, 20),
    (0x813f3978f8940984, 30, 28),
    (0xc097ce7bc90715b3, 56, 36),
    (0x8f7e32ce7bea5c70, 83, 44),
    (0xd5d238a4abe98068, 109, 52),
    (0x9f4f2726179a2245, 136, 60),
    (0xed63a231d4c4fb27, 162, 68),
    (0xb0de65388cc8ada8, 189, 76),
    (0x83c7088e1aab65db, 216, 84),
    (0xc45d1df942711d9a, 242, 92),
    (0x924d692ca61be758, 269, 100),
    (0xda01ee641a708dea, 295, 108),
    (0xa26da3999aef774a, 322, 116),
    (0xf209787bb47d6b85, 348, 124),
    (0xb454e4a179dd1877, 375, 132),
    (0x865b86925b9bc5c2, 402, 140),
    (0xc83553c5c8965d3d, 428, 148),
    (0x952ab45cfa97a0b3, 455, 156),
    (0xde469fbd99a05fe3, 481, 164),
    (0xa59bc234db398c25, 508, 172),
    (0xf6c69a72a3989f5c, 534, 180),
    (0xb7dcbf5354e9bece, 561, 188),
    (0x88fcf317f22241e2, 588, 196),
    (0xcc20ce9bd35c78a5, 614, 204),
    (0x98165af37b2153df, 641, 212),
    (0xe2a0b5dc971f303a, 667, 220),
    (0xa8d9d1535ce3b396, 694, 228),
    (0xfb9b7cd9a4a7443c, 720, 236),
    (0xbb764c4ca7a44410, 747, 244),
    (0x8bab8eefb6409c1a, 774, 252),
    (0xd01fef10a657842c, 800, 260),
    (0x9b10a4e5e9913129, 827, 268),
    (0xe7109bfba19c0c9d, 853, 276),
    (0xac2820d9623bf429, 880, 284),
    (0x80444b5e7aa7cf85, 907, 292),
    (0xbf21e44003acdd2d, 933, 300),
    (0x8e679c2f5e44ff8f, 960, 308),
    (0xd433179d9c8cb841, 986, 316),
    (0x9e19db92b4e31ba9, 1013, 324),
    (0xeb96bf6ebadf77d9, 1039, 332),
];

const CACHED_POW10_FIRST_E: i16 = -1087;
const CACHED_POW10_LAST_E: i16 = 1039;

/// `(k, 10^k)` from the table, with the power's exponent in
/// `[alpha, gamma]`.
fn cached_power(alpha: i16, gamma: i16) -> (i16, Fp) {
    let offset = CACHED_POW10_FIRST_E as i32;
    let range = (CACHED_POW10.len() as i32) - 1;
    let domain = (CACHED_POW10_LAST_E - CACHED_POW10_FIRST_E) as i32;
    let idx = ((gamma as i32) - offset) * range / domain;
    let (f, e, k) = CACHED_POW10[idx as usize];
    debug_assert!(alpha <= e && e <= gamma);
    (k, Fp { f, e })
}

/// Given `x > 0`, `(k, 10^k)` such that `10^k <= x < 10^(k+1)`.
fn max_pow10_no_more_than(x: u32) -> (u8, u32) {
    debug_assert!(x > 0);
    if x < 10_000 {
        if x < 100 {
            if x < 10 {
                (0, 1)
            } else {
                (1, 10)
            }
        } else if x < 1_000 {
            (2, 100)
        } else {
            (3, 1_000)
        }
    } else if x < 1_000_000 {
        if x < 100_000 {
            (4, 10_000)
        } else {
            (5, 100_000)
        }
    } else if x < 100_000_000 {
        if x < 10_000_000 {
            (6, 1_000_000)
        } else {
            (7, 10_000_000)
        }
    } else if x < 1_000_000_000 {
        (8, 100_000_000)
    } else {
        (9, 1_000_000_000)
    }
}

/// Digits written by [`shortest`] at most: core's `MAX_SIG_DIGITS`.
pub(crate) const MAX_SIG_DIGITS: usize = 17;

/// The shortest digits `d` and exponent `k` with `0.d * 10^k` reading back
/// as `v` (positive, finite, not zero) and nearest it among those: the
/// number of digits written to `buf`, and `k`. `None` where Grisu cannot
/// tell that its candidate is both, which is rare (under 1 % of random bit
/// patterns); the caller then asks core.
pub(crate) fn shortest(v: f64, buf: &mut [u8; MAX_SIG_DIGITS]) -> Option<(usize, i16)> {
    debug_assert!(v.is_finite() && v > 0.0);
    let d = decode(v);

    // The normalised values with a shared exponent.
    let plus = Fp {
        f: d.mant + d.plus,
        e: d.exp,
    }
    .normalize();
    let minus = Fp {
        f: d.mant - d.minus,
        e: d.exp,
    }
    .normalize_to(plus.e);
    let v = Fp {
        f: d.mant,
        e: d.exp,
    }
    .normalize_to(plus.e);

    // A `cached = 10^minusk` with `ALPHA <= minusk + plus.e + 64 <= GAMMA`
    // puts `plus * cached` into `[4, 2^32)`: its integral part fits a u32,
    // and ten times a remainder below `2^-ALPHA` fits a u64.
    let (minusk, cached) = cached_power(ALPHA - plus.e - 64, GAMMA - plus.e - 64);

    // Scaled, each is off by at most 1 ulp.
    let plus = plus.mul(cached);
    let minus = minus.mul(cached);
    let v = v.mul(cached);
    debug_assert!(plus.e == minus.e && plus.e == v.e);

    // The unsafe interval `(minus1, plus1)`, one ulp wider on each side,
    // surely holds every value that reads back as `v`; the answer must also
    // lie in the safe one, one ulp narrower, or Grisu gives up.
    let plus1 = plus.f + 1;
    let minus1 = minus.f - 1;
    let e = -plus.e as usize;

    let plus1int = (plus1 >> e) as u32;
    let plus1frac = plus1 & ((1 << e) - 1);

    // `plus1 < 10^(max_kappa+1)`: a bound on the digits' `kappa` below.
    let (max_kappa, max_ten_kappa) = max_pow10_no_more_than(plus1int);

    let mut i = 0;
    let exp = max_kappa as i16 - minusk + 1;

    // Theorem 6.2: for the largest `k` with `0 <= y mod 10^k <= y - x`,
    // `floor(y / 10^k) * 10^k` is in `[x, y]` and as short as anything
    // there. Find that `kappa` for `(minus1, plus1)`.
    let delta1 = plus1 - minus1;
    let delta1frac = delta1 & ((1 << e) - 1);

    // The integral digits, checking the accuracy after each.
    let mut ten_kappa = max_ten_kappa;
    let mut remainder = plus1int;
    loop {
        let q = remainder / ten_kappa;
        let r = remainder % ten_kappa;
        debug_assert!(q < 10);
        buf[i] = b'0' + q as u8;
        i += 1;

        let plus1rem = ((r as u64) << e) + plus1frac; // (plus1 % 10^kappa) * 2^e
        if plus1rem < delta1 {
            let ten_kappa = (ten_kappa as u64) << e;
            return round_and_weed(&mut buf[..i], plus1rem, delta1, plus1 - v.f, ten_kappa, 1)
                .then_some((i, exp));
        }
        if i > max_kappa as usize {
            debug_assert_eq!(ten_kappa, 1);
            break;
        }
        ten_kappa /= 10;
        remainder = r;
    }

    // The fractional digits, by multiplication: division would lose bits.
    let mut remainder = plus1frac;
    let mut threshold = delta1frac;
    let mut ulp = 1;
    loop {
        remainder *= 10; // `2^e * 10 < 2^64`
        threshold *= 10;
        ulp *= 10;

        let q = remainder >> e;
        let r = remainder & ((1 << e) - 1);
        debug_assert!(q < 10);
        buf[i] = b'0' + q as u8;
        i += 1;

        if r < threshold {
            let ten_kappa = 1 << e;
            return round_and_weed(
                &mut buf[..i],
                r,
                threshold,
                (plus1 - v.f) * ulp,
                ten_kappa,
                ulp,
            )
            .then_some((i, exp));
        }
        remainder = r;
    }
}

/// Lower the last digit of `buf` (the largest candidate in the unsafe
/// interval) while that brings it nearer `v`, then accept it only if it is
/// also the nearest to both of `v`'s 1-ulp approximations and lies in the
/// safe interval. Every argument is scaled by one implicit factor:
/// `remainder` is `plus1 % 10^kappa`, `threshold` is `plus1 - minus1`,
/// `plus1v` is `plus1 - v`, `ten_kappa` is `10^kappa` and `ulp` is `2^-e`.
/// The comparisons are core's, arranged so that none overflows.
fn round_and_weed(
    buf: &mut [u8],
    remainder: u64,
    threshold: u64,
    plus1v: u64,
    ten_kappa: u64,
    ulp: u64,
) -> bool {
    let plus1v_down = plus1v + ulp; // plus1 - (v - 1 ulp)
    let plus1v_up = plus1v - ulp; // plus1 - (v + 1 ulp)

    // `plus1w = plus1 - w`, for the candidate `w`, only ever grows.
    let mut plus1w = remainder;
    let last = buf.last_mut().expect("at least one digit");
    while plus1w < plus1v_up
        && threshold - plus1w >= ten_kappa
        && (plus1w + ten_kappa < plus1v_up || plus1v_up - plus1w >= plus1w + ten_kappa - plus1v_up)
    {
        *last -= 1;
        debug_assert!(*last > b'0'); // the shortest digits never end in 0
        plus1w += ten_kappa;
    }

    // Is the candidate also the nearest to `v - 1 ulp`?
    if plus1w < plus1v_down
        && threshold - plus1w >= ten_kappa
        && (plus1w + ten_kappa < plus1v_down
            || plus1v_down - plus1w >= plus1w + ten_kappa - plus1v_down)
    {
        return false;
    }

    // Inside the safe interval: `plus1 - plus0 = minus0 - minus1 = 2 ulp`.
    2 * ulp <= plus1w && plus1w <= threshold - 4 * ulp
}
