//! Dimension spaces for sets and maps.
//!
//! A [`Space`] names the tuple of a set (`S[i, j]`) and the symbolic
//! parameters shared by every object taking part in a computation
//! (`[N, M]`). A [`MapSpace`] pairs an input and an output tuple.
//!
//! Column layout convention used throughout the crate: constraint
//! coefficient vectors are laid out as `[dims..., params..., constant]` for
//! sets and `[in_dims..., out_dims..., params..., constant]` for maps.

/// The space of a set: a named tuple of dimensions plus symbolic parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Space {
    name: String,
    dims: Vec<String>,
    params: Vec<String>,
}

impl Space {
    /// Creates the space of a set named `name` with the given dimension and
    /// parameter names.
    ///
    /// ```
    /// use polyhedral::Space;
    /// let s = Space::set("S", &["i", "j"], &["N"]);
    /// assert_eq!(s.n_dims(), 2);
    /// ```
    pub fn set(name: &str, dims: &[&str], params: &[&str]) -> Space {
        Space {
            name: name.to_string(),
            dims: dims.iter().map(|s| s.to_string()).collect(),
            params: params.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Creates a space from owned dimension names.
    pub fn from_names(name: String, dims: Vec<String>, params: Vec<String>) -> Space {
        Space { name, dims, params }
    }

    /// The tuple name (e.g. the computation name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of set dimensions.
    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// Number of symbolic parameters.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    /// Dimension names.
    pub fn dims(&self) -> &[String] {
        &self.dims
    }

    /// Parameter names.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Total number of coefficient columns (`dims + params + 1`).
    pub fn n_cols(&self) -> usize {
        self.dims.len() + self.params.len() + 1
    }

    /// Index of the column holding the coefficient of parameter `i`.
    pub fn param_col(&self, i: usize) -> usize {
        assert!(i < self.params.len(), "param index {i} out of range");
        self.dims.len() + i
    }

    /// Returns a copy with a different tuple name.
    pub fn with_name(&self, name: &str) -> Space {
        Space {
            name: name.to_string(),
            dims: self.dims.clone(),
            params: self.params.clone(),
        }
    }

    /// True when two spaces have the same dimensionality and parameters
    /// (tuple names may differ; most operations only require structural
    /// compatibility).
    pub fn is_compatible(&self, other: &Space) -> bool {
        self.dims.len() == other.dims.len() && self.params == other.params
    }
}

impl std::fmt::Display for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] -> {{ {}[{}] }}", self.params.join(", "), self.name, self.dims.join(", "))
    }
}

/// The space of a map: an input tuple, an output tuple and shared parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MapSpace {
    in_space: Space,
    out_space: Space,
}

impl MapSpace {
    /// Creates a map space from an input and an output space.
    ///
    /// # Panics
    ///
    /// Panics if the two spaces disagree on the parameter list.
    pub fn new(in_space: Space, out_space: Space) -> MapSpace {
        assert_eq!(
            in_space.params(),
            out_space.params(),
            "map input and output must share parameters"
        );
        MapSpace { in_space, out_space }
    }

    /// The input (domain) space.
    pub fn in_space(&self) -> &Space {
        &self.in_space
    }

    /// The output (range) space.
    pub fn out_space(&self) -> &Space {
        &self.out_space
    }

    /// Number of input dimensions.
    pub fn n_in(&self) -> usize {
        self.in_space.n_dims()
    }

    /// Number of output dimensions.
    pub fn n_out(&self) -> usize {
        self.out_space.n_dims()
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.in_space.n_params()
    }

    /// Total number of coefficient columns (`in + out + params + 1`).
    pub fn n_cols(&self) -> usize {
        self.n_in() + self.n_out() + self.n_params() + 1
    }

    /// Column of input dimension `i`.
    pub fn in_col(&self, i: usize) -> usize {
        assert!(i < self.n_in());
        i
    }

    /// Column of output dimension `i`.
    pub fn out_col(&self, i: usize) -> usize {
        assert!(i < self.n_out());
        self.n_in() + i
    }

    /// Column of parameter `i`.
    pub fn param_col(&self, i: usize) -> usize {
        assert!(i < self.n_params());
        self.n_in() + self.n_out() + i
    }

    /// The reversed map space (output becomes input).
    pub fn reversed(&self) -> MapSpace {
        MapSpace {
            in_space: self.out_space.clone(),
            out_space: self.in_space.clone(),
        }
    }

    /// The flattened space treating all in+out dims as set dims of one tuple
    /// named `in->out`.
    pub fn wrapped(&self) -> Space {
        let mut dims: Vec<String> = Vec::with_capacity(self.n_in() + self.n_out());
        for d in self.in_space.dims() {
            dims.push(format!("i_{d}"));
        }
        for d in self.out_space.dims() {
            dims.push(format!("o_{d}"));
        }
        Space::from_names(
            format!("{}->{}", self.in_space.name(), self.out_space.name()),
            dims,
            self.in_space.params().to_vec(),
        )
    }
}

impl std::fmt::Display for MapSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] -> {{ {}[{}] -> {}[{}] }}",
            self.in_space.params().join(", "),
            self.in_space.name(),
            self.in_space.dims().join(", "),
            self.out_space.name(),
            self.out_space.dims().join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_space_columns() {
        let s = Space::set("S", &["i", "j"], &["N", "M"]);
        assert_eq!(s.n_cols(), 5);
        assert_eq!(s.param_col(0), 2);
    }

    #[test]
    fn map_space_columns() {
        let a = Space::set("A", &["i"], &["N"]);
        let b = Space::set("B", &["x", "y"], &["N"]);
        let m = MapSpace::new(a, b);
        assert_eq!(m.n_cols(), 1 + 2 + 1 + 1);
        assert_eq!(m.in_col(0), 0);
        assert_eq!(m.out_col(1), 2);
        assert_eq!(m.param_col(0), 3);
        let r = m.reversed();
        assert_eq!(r.n_in(), 2);
        assert_eq!(r.n_out(), 1);
    }

    #[test]
    #[should_panic]
    fn mismatched_params_panic() {
        let a = Space::set("A", &["i"], &["N"]);
        let b = Space::set("B", &["x"], &["M"]);
        let _ = MapSpace::new(a, b);
    }

    #[test]
    fn wrapped_space() {
        let a = Space::set("A", &["i"], &["N"]);
        let b = Space::set("B", &["x"], &["N"]);
        let w = MapSpace::new(a, b).wrapped();
        assert_eq!(w.n_dims(), 2);
        assert_eq!(w.dims(), &["i_i".to_string(), "o_x".to_string()]);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Space::set("S", &["i"], &[]);
        assert!(!format!("{s}").is_empty());
    }
}
