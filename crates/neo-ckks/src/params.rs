//! CKKS parameter sets, including the paper's Table 4 presets and the KLSS
//! parameter derivation (`α'` from the Eq. 4 security constraint, `β̃`),
//! plus [`CkksParamsBuilder`] — the checked construction path that rejects
//! infeasible configurations *before* any prime generation runs.

use neo_error::NeoError;
use neo_math::MathError;

/// KLSS key-switching configuration (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KlssConfig {
    /// Bit width of the auxiliary `R_T` primes (`WordSize_T`).
    pub word_size_t: u32,
    /// Key digit size `α̃` (limbs per key digit).
    pub alpha_tilde: usize,
}

/// Which key-switching method an evaluation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KsMethod {
    /// The conventional Hybrid method.
    Hybrid,
    /// The KLSS method (CRYPTO'23) over the auxiliary basis `R_T`.
    Klss,
}

/// Static CKKS parameters. The compute backend is not one of them: it is
/// resolved once per process ([`neo_math::backend::active`]), and keys,
/// ciphertexts and stored records are bit-identical under either backend.
#[derive(Debug, Clone, PartialEq)]
pub struct CkksParams {
    /// log2 of the ring degree `N`.
    pub log_n: u32,
    /// Maximum ciphertext level `L` (the chain has `L+1` data primes).
    pub max_level: usize,
    /// Bit width of the data primes (`WordSize`).
    pub word_size: u32,
    /// Number of special primes (`K`, equal to `α` in the paper's setup).
    pub special: usize,
    /// Gadget digit count `d_num`.
    pub dnum: usize,
    /// KLSS configuration. When set, a session over these parameters
    /// switches keys with KLSS, otherwise with Hybrid
    /// ([`Self::method`]).
    pub klss: Option<KlssConfig>,
    /// Ciphertexts batched per operation (performance model only).
    pub batch_size: usize,
    /// Standard deviation of the error distribution.
    pub error_std: f64,
    /// log2 of the encoding scale `Δ`.
    pub scale_bits: u32,
    /// Security level from the paper's Table 4 (reported, not re-derived).
    pub lambda: u32,
    /// Use single scaling (plain Rescale) in bootstrapping even at small
    /// word sizes — the TensorFHE\_SS / Neo\_SS rows of Table 5.
    pub single_scaling: bool,
}

impl CkksParams {
    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        1usize << self.log_n
    }

    /// Slot count `N/2`.
    pub fn slots(&self) -> usize {
        self.n() / 2
    }

    /// Encoding scale `Δ`.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }

    /// `α = ⌈(L+1)/d_num⌉` — limbs per ciphertext digit.
    pub fn alpha(&self) -> usize {
        (self.max_level + 1).div_ceil(self.dnum)
    }

    /// `β(l) = ⌈(l+1)/α⌉` — digit count at level `l`.
    pub fn beta(&self, level: usize) -> usize {
        (level + 1).div_ceil(self.alpha())
    }

    /// `β̃(l) = ⌈(l+1+K)/α̃⌉` — KLSS output digit count at level `l`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter set has no KLSS configuration.
    pub fn beta_tilde(&self, level: usize) -> usize {
        let k = self.klss.expect("beta_tilde requires a KLSS configuration");
        (level + 1 + self.special).div_ceil(k.alpha_tilde)
    }

    /// `α'` — the `R_T` limb count from the Eq. 4 security/correctness
    /// constraint, sized for the worst case (`l = L`):
    ///
    /// ```text
    /// α' ≥ ⌈ log2(2 β N B B̃) / WordSize_T ⌉,
    ///   B = 2^(α·w),  B̃ = 2^(α̃·w)
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the parameter set has no KLSS configuration.
    pub fn alpha_prime(&self) -> usize {
        let k = self
            .klss
            .expect("alpha_prime requires a KLSS configuration");
        let beta_max = self.beta(self.max_level) as f64;
        let log_bound = 1.0
            + beta_max.log2()
            + self.log_n as f64
            + (self.alpha() as f64) * self.word_size as f64
            + (k.alpha_tilde as f64) * self.word_size as f64;
        (log_bound / k.word_size_t as f64).ceil() as usize
    }

    /// The key-switching method a session over these parameters runs:
    /// KLSS exactly when [`Self::klss`] is set.
    pub fn method(&self) -> KsMethod {
        if self.klss.is_some() {
            KsMethod::Klss
        } else {
            KsMethod::Hybrid
        }
    }

    /// These parameters with `klss` as their KLSS configuration (`None`
    /// runs Hybrid), re-checked by [`CkksParamsBuilder::build`] unless
    /// nothing changes. The one way the planner derives a candidate's
    /// parameters from its base set.
    ///
    /// # Errors
    ///
    /// As [`CkksParamsBuilder::build`], e.g. for a `WordSize_T` that
    /// violates Eq. 4 or cannot supply enough NTT-friendly primes.
    pub fn with_klss(&self, klss: Option<KlssConfig>) -> Result<Self, NeoError> {
        if klss == self.klss {
            return Ok(self.clone());
        }
        CkksParamsBuilder {
            log_n: self.log_n,
            max_level: self.max_level,
            word_size: self.word_size,
            special: Some(self.special),
            dnum: self.dnum,
            klss,
            batch_size: self.batch_size,
            error_std: self.error_std,
            scale_bits: Some(self.scale_bits),
            lambda: self.lambda,
            single_scaling: self.single_scaling,
        }
        .build()
    }

    /// Basic consistency checks.
    ///
    /// # Errors
    ///
    /// [`MathError::InvalidDegree`] for a degenerate configuration.
    pub fn validate(&self) -> Result<(), MathError> {
        if self.log_n < 3 || self.log_n > 17 {
            return Err(MathError::InvalidDegree(self.log_n as usize));
        }
        if self.dnum == 0 || self.dnum > self.max_level + 1 {
            return Err(MathError::InvalidDegree(self.dnum));
        }
        if self.word_size < 20 || self.word_size > 61 {
            return Err(MathError::InvalidModulus(self.word_size as u64));
        }
        Ok(())
    }

    /// A small parameter set for functional tests: `N = 2^10`, `L = 5`,
    /// 36-bit words, `d_num = 3`, KLSS with 48-bit `R_T` primes.
    pub fn test_small() -> Self {
        Self {
            log_n: 10,
            max_level: 5,
            word_size: 36,
            special: 2,
            dnum: 3,
            klss: Some(KlssConfig {
                word_size_t: 48,
                alpha_tilde: 2,
            }),
            batch_size: 1,
            error_std: 3.2,
            scale_bits: 36,
            lambda: 0,
            single_scaling: false,
        }
    }

    /// A tiny parameter set (`N = 2^8`) for fast unit tests.
    pub fn test_tiny() -> Self {
        Self {
            log_n: 8,
            ..Self::test_small()
        }
    }

    /// Starts a checked builder (see [`CkksParamsBuilder`]).
    pub fn builder() -> CkksParamsBuilder {
        CkksParamsBuilder::new()
    }
}

/// Checked construction of [`CkksParams`]: `build()` runs the structural
/// [`CkksParams::validate`] checks *and* the feasibility checks a context
/// would otherwise only hit at prime-generation time — enough
/// NTT-friendly primes of the chosen word sizes for the chain and the
/// KLSS auxiliary basis, a scale that one rescale can actually remove,
/// and the Eq. 4 KLSS correctness bound.
///
/// ```
/// use neo_ckks::CkksParams;
///
/// let p = CkksParams::builder()
///     .log_n(10)
///     .max_level(5)
///     .word_size(36)
///     .dnum(3)
///     .klss(48, 2)
///     .build()?;
/// assert_eq!(p.alpha(), 2);
/// # Ok::<(), neo_ckks::NeoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CkksParamsBuilder {
    log_n: u32,
    max_level: usize,
    word_size: u32,
    special: Option<usize>,
    dnum: usize,
    klss: Option<KlssConfig>,
    batch_size: usize,
    error_std: f64,
    scale_bits: Option<u32>,
    lambda: u32,
    single_scaling: bool,
}

impl Default for CkksParamsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CkksParamsBuilder {
    /// Starts from the [`CkksParams::test_small`] shape: `N = 2^10`,
    /// `L = 5`, 36-bit words, `d_num = 3`, no KLSS.
    pub fn new() -> Self {
        Self {
            log_n: 10,
            max_level: 5,
            word_size: 36,
            special: None,
            dnum: 3,
            klss: None,
            batch_size: 1,
            error_std: 3.2,
            scale_bits: None,
            lambda: 0,
            single_scaling: false,
        }
    }

    /// log2 of the ring degree `N`.
    pub fn log_n(mut self, log_n: u32) -> Self {
        self.log_n = log_n;
        self
    }

    /// Maximum ciphertext level `L`.
    pub fn max_level(mut self, max_level: usize) -> Self {
        self.max_level = max_level;
        self
    }

    /// Bit width of the data primes.
    pub fn word_size(mut self, word_size: u32) -> Self {
        self.word_size = word_size;
        self
    }

    /// Number of special primes (defaults to `α` when unset).
    pub fn special(mut self, special: usize) -> Self {
        self.special = Some(special);
        self
    }

    /// Gadget digit count `d_num`.
    pub fn dnum(mut self, dnum: usize) -> Self {
        self.dnum = dnum;
        self
    }

    /// Enables KLSS key switching with the given `WordSize_T` and `α̃`.
    pub fn klss(mut self, word_size_t: u32, alpha_tilde: usize) -> Self {
        self.klss = Some(KlssConfig {
            word_size_t,
            alpha_tilde,
        });
        self
    }

    /// Batch size for the performance model.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Standard deviation of the error distribution.
    pub fn error_std(mut self, error_std: f64) -> Self {
        self.error_std = error_std;
        self
    }

    /// log2 of the encoding scale `Δ` (defaults to the word size).
    pub fn scale_bits(mut self, scale_bits: u32) -> Self {
        self.scale_bits = Some(scale_bits);
        self
    }

    /// Reported security level.
    pub fn lambda(mut self, lambda: u32) -> Self {
        self.lambda = lambda;
        self
    }

    /// Use single scaling in bootstrapping.
    pub fn single_scaling(mut self, single_scaling: bool) -> Self {
        self.single_scaling = single_scaling;
        self
    }

    /// Approximate count of NTT-friendly primes (`p ≡ 1 mod 2N`) of
    /// exactly `bits` bits, by the prime-counting density: of the
    /// `2^(bits-1)` integers in range, one in `ln(2^bits)` is prime and
    /// one in `2N` of those has the required residue.
    fn available_primes(bits: u32, log_n: u32) -> f64 {
        let range = 2f64.powi(bits as i32 - 1);
        let density = 1.0 / ((bits as f64) * std::f64::consts::LN_2);
        range * density / 2f64.powi(log_n as i32 + 1)
    }

    /// Validates and assembles the parameter set.
    ///
    /// # Errors
    ///
    /// [`NeoError::Math`] for the structural checks of
    /// [`CkksParams::validate`]; [`NeoError::InvalidParams`] when the
    /// word size cannot supply enough NTT-friendly primes for the chain
    /// (or `WordSize_T` for the auxiliary basis), when the scale cannot
    /// be removed by one rescale (`Δ` wider than a prime), or when the
    /// KLSS configuration is degenerate or violates the Eq. 4 bound.
    pub fn build(self) -> Result<CkksParams, NeoError> {
        let mut p = CkksParams {
            log_n: self.log_n,
            max_level: self.max_level,
            word_size: self.word_size,
            special: self.special.unwrap_or(0),
            dnum: self.dnum,
            klss: self.klss,
            batch_size: self.batch_size,
            error_std: self.error_std,
            scale_bits: self.scale_bits.unwrap_or(self.word_size),
            lambda: self.lambda,
            single_scaling: self.single_scaling,
        };
        p.validate()?;
        // alpha() divides by dnum, so derive the default special count
        // only after validate() has rejected dnum == 0.
        if self.special.is_none() {
            p.special = p.alpha();
        }
        if p.batch_size == 0 {
            return Err(NeoError::invalid_params("batch_size must be at least 1"));
        }
        if p.error_std.is_nan() || p.error_std <= 0.0 {
            return Err(NeoError::invalid_params(format!(
                "error_std must be positive, got {}",
                p.error_std
            )));
        }
        // Scale/level compatibility: one rescale divides by one data
        // prime, so Δ wider than a prime can never be removed — and a
        // degenerate Δ < 2^2 leaves no precision at all.
        if p.scale_bits > p.word_size {
            return Err(NeoError::invalid_params(format!(
                "scale_bits {} exceeds word_size {}: one rescale cannot remove Δ",
                p.scale_bits, p.word_size
            )));
        }
        if p.scale_bits < 2 {
            return Err(NeoError::invalid_params(format!(
                "scale_bits {} leaves no precision",
                p.scale_bits
            )));
        }
        // NTT-friendliness: the chain needs L+1 data primes and K special
        // primes, all ≡ 1 mod 2N, all word_size bits wide.
        let needed = (p.max_level + 1 + p.special) as f64;
        let avail = Self::available_primes(p.word_size, p.log_n);
        if avail < needed {
            return Err(NeoError::invalid_params(format!(
                "word_size {} supplies only ~{avail:.0} NTT-friendly primes for \
                 N = 2^{}, but the chain needs {needed}",
                p.word_size, p.log_n
            )));
        }
        if let Some(k) = p.klss {
            if k.alpha_tilde == 0 || k.alpha_tilde > p.max_level + 1 + p.special {
                return Err(NeoError::invalid_params(format!(
                    "KLSS alpha_tilde {} out of range 1..={}",
                    k.alpha_tilde,
                    p.max_level + 1 + p.special
                )));
            }
            if k.word_size_t < 20 || k.word_size_t > 64 {
                return Err(NeoError::invalid_params(format!(
                    "KLSS word_size_t {} out of range 20..=64",
                    k.word_size_t
                )));
            }
            // Eq. 4: the auxiliary modulus T = ∏ t_i (α' primes of
            // WordSize_T bits) must dominate the inner-product bound
            // 2·β·N·B·B̃ so R_T residues determine it exactly.
            let alpha_prime = p.alpha_prime();
            let t_bits = alpha_prime as f64 * k.word_size_t as f64;
            let bound_bits = 1.0
                + (p.beta(p.max_level) as f64).log2()
                + p.log_n as f64
                + (p.alpha() as f64) * p.word_size as f64
                + (k.alpha_tilde as f64) * p.word_size as f64;
            if t_bits < bound_bits {
                return Err(NeoError::invalid_params(format!(
                    "KLSS Eq. 4 violated: T has {t_bits:.0} bits but the \
                     inner-product bound needs {bound_bits:.1}"
                )));
            }
            // The auxiliary basis must itself be realizable with
            // NTT-friendly primes, and small enough to be worth it.
            let t_avail = Self::available_primes(k.word_size_t, p.log_n);
            if t_avail < alpha_prime as f64 {
                return Err(NeoError::invalid_params(format!(
                    "KLSS word_size_t {} supplies only ~{t_avail:.0} NTT-friendly \
                     primes for N = 2^{}, but α' = {alpha_prime}",
                    k.word_size_t, p.log_n
                )));
            }
            if alpha_prime > p.max_level + 1 + p.special {
                return Err(NeoError::invalid_params(format!(
                    "KLSS auxiliary basis (α' = {alpha_prime}) is larger than \
                     R_PQ itself ({} limbs): the method cannot pay off",
                    p.max_level + 1 + p.special
                )));
            }
        }
        Ok(p)
    }
}

/// The paper's Table 4 parameter sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamSet {
    /// `d_num = 1`, 36-bit words, Hybrid.
    A,
    /// `d_num = 3`, 36-bit words, Hybrid.
    B,
    /// `d_num = 9`, 36-bit words, KLSS with `WordSize_T = 48`, `α̃ = 5`.
    C,
    /// 60-bit words, `d_num = 36`, KLSS with `WordSize_T = 64`, `α̃ = 3`
    /// (HEonGPU-comparable).
    D,
    /// 60-bit words, `d_num = 36`, Hybrid (HEonGPU's own setting).
    E,
    /// `L = 23`, 36-bit, `d_num = 1` (TensorFHE single-scaling setting).
    F,
    /// `L = 23`, 36-bit, `d_num = 6`, KLSS (Neo single-scaling setting).
    G,
    /// `L = 44`, 60-bit, `d_num = 45` (CPU/100x setting).
    H,
}

impl ParamSet {
    /// All sets in order.
    pub const ALL: [ParamSet; 8] = [
        ParamSet::A,
        ParamSet::B,
        ParamSet::C,
        ParamSet::D,
        ParamSet::E,
        ParamSet::F,
        ParamSet::G,
        ParamSet::H,
    ];

    /// Materializes the Table 4 column.
    pub fn params(self) -> CkksParams {
        let base = CkksParams {
            log_n: 16,
            max_level: 35,
            word_size: 36,
            special: 0, // filled below as alpha
            dnum: 1,
            klss: None,
            batch_size: 128,
            error_std: 3.2,
            scale_bits: 36,
            lambda: 128,
            single_scaling: false,
        };
        let mut p = match self {
            ParamSet::A => CkksParams { dnum: 1, ..base },
            ParamSet::B => CkksParams { dnum: 3, ..base },
            ParamSet::C => CkksParams {
                dnum: 9,
                klss: Some(KlssConfig {
                    word_size_t: 48,
                    alpha_tilde: 5,
                }),
                ..base
            },
            ParamSet::D => CkksParams {
                word_size: 60,
                scale_bits: 60,
                dnum: 36,
                klss: Some(KlssConfig {
                    word_size_t: 64,
                    alpha_tilde: 3,
                }),
                ..base
            },
            ParamSet::E => CkksParams {
                word_size: 60,
                scale_bits: 60,
                dnum: 36,
                ..base
            },
            ParamSet::F => CkksParams {
                max_level: 23,
                dnum: 1,
                single_scaling: true,
                ..base
            },
            ParamSet::G => CkksParams {
                max_level: 23,
                dnum: 6,
                klss: Some(KlssConfig {
                    word_size_t: 48,
                    alpha_tilde: 5,
                }),
                single_scaling: true,
                ..base
            },
            ParamSet::H => CkksParams {
                max_level: 44,
                word_size: 60,
                scale_bits: 60,
                dnum: 45,
                lambda: 98,
                ..base
            },
        };
        p.special = p.alpha();
        p
    }
}

impl std::fmt::Display for ParamSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Set-{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_c_derives_paper_alpha_prime() {
        // The paper's default: alpha = 4, alpha' = 8 (Fig. 11 caption).
        let p = ParamSet::C.params();
        assert_eq!(p.alpha(), 4);
        assert_eq!(p.alpha_prime(), 8);
        assert_eq!(p.beta(35), 9);
        assert_eq!(p.beta_tilde(35), 8);
    }

    #[test]
    fn set_d_alpha_prime() {
        let p = ParamSet::D.params();
        assert_eq!(p.alpha(), 1);
        // log2(2*36*2^16*2^60*2^180) ≈ 262.2 -> ceil(262.2/64) = 5.
        assert_eq!(p.alpha_prime(), 5);
    }

    #[test]
    fn beta_shrinks_with_level() {
        let p = ParamSet::C.params();
        assert_eq!(p.beta(35), 9);
        assert_eq!(p.beta(3), 1);
        assert!(p.beta_tilde(3) < p.beta_tilde(35));
    }

    #[test]
    fn all_sets_validate() {
        for s in ParamSet::ALL {
            s.params().validate().unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(ParamSet::C.to_string(), "Set-C");
    }

    #[test]
    fn builder_matches_test_small() {
        let built = CkksParams::builder().build().unwrap();
        assert_eq!(built.klss, None);
        let with_klss = CkksParams::builder().klss(48, 2).build().unwrap();
        assert_eq!(with_klss, CkksParams::test_small());
    }

    #[test]
    fn builder_rejects_infeasible_prime_supply() {
        // 20-bit NTT-friendly primes are too sparse for N = 2^16.
        let err = CkksParams::builder()
            .log_n(16)
            .word_size(20)
            .scale_bits(18)
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), neo_error::ErrorKind::InvalidParams);
        assert!(err.to_string().contains("NTT-friendly"), "{err}");
    }

    #[test]
    fn builder_rejects_scale_wider_than_word() {
        let err = CkksParams::builder()
            .word_size(36)
            .scale_bits(40)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("rescale"), "{err}");
    }

    #[test]
    fn builder_rejects_degenerate_klss() {
        assert!(CkksParams::builder().klss(48, 0).build().is_err());
        assert!(CkksParams::builder().klss(16, 2).build().is_err());
        // An α̃ so large the auxiliary basis outgrows R_PQ itself.
        let err = CkksParams::builder()
            .klss(20, 8)
            .special(2)
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), neo_error::ErrorKind::InvalidParams);
    }

    #[test]
    fn with_klss_rekeys_the_method_and_rechecks() {
        let p = CkksParams::test_small();
        assert_eq!(p.method(), KsMethod::Klss);
        assert_eq!(p.with_klss(p.klss).unwrap(), p);
        let hybrid = p.with_klss(None).unwrap();
        assert_eq!(hybrid.method(), KsMethod::Hybrid);
        assert_eq!(
            CkksParams {
                klss: p.klss,
                ..hybrid
            },
            p
        );
        let k = p.klss.unwrap();
        let w36 = p
            .with_klss(Some(KlssConfig {
                word_size_t: 36,
                ..k
            }))
            .unwrap();
        assert_eq!(w36.klss.unwrap().word_size_t, 36);
        assert!(p
            .with_klss(Some(KlssConfig {
                word_size_t: 16,
                ..k
            }))
            .is_err());
    }

    #[test]
    fn builder_rejects_structural_errors_via_math() {
        let err = CkksParams::builder().log_n(2).build().unwrap_err();
        assert_eq!(err.kind(), neo_error::ErrorKind::Math);
        assert!(CkksParams::builder().dnum(0).build().is_err());
    }

    #[test]
    fn test_set_klss_geometry_is_consistent() {
        let p = CkksParams::test_small();
        p.validate().unwrap();
        assert_eq!(p.alpha(), 2);
        assert_eq!(p.beta(5), 3);
        // T must exceed 2*beta*N*B*B~ with margin (Eq. 4 satisfied by
        // construction of alpha_prime).
        let k = p.klss.unwrap();
        let t_bits = p.alpha_prime() as f64 * k.word_size_t as f64;
        let bound_bits = 1.0
            + (p.beta(5) as f64).log2()
            + p.log_n as f64
            + (p.alpha() * p.word_size as usize) as f64
            + (k.alpha_tilde * p.word_size as usize) as f64;
        assert!(t_bits >= bound_bits, "{t_bits} < {bound_bits}");
    }
}
