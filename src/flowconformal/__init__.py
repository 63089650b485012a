"""Per-class roundtrip models between inputs and a standard-normal latent
space, with conformal predictive sets and outlier decisions built on the
squared-norm of the latent encoding."""

__version__ = "0.1.0"
