//! Individual layers of a GAN generator or discriminator.

use ganax_tensor::{ConvParams, Result as TensorResult, Shape};

/// Non-linearity applied after a layer's main operation.
///
/// The accelerator models only need to know whether an activation pass exists
/// (it costs one pass through the non-linear unit per output element); the
/// specific function does not change the dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// No activation (e.g. the final layer before a loss).
    None,
    /// Rectified linear unit.
    Relu,
    /// Leaky rectified linear unit (common in GAN discriminators).
    LeakyRelu,
    /// Hyperbolic tangent (common on generator outputs).
    Tanh,
    /// Logistic sigmoid (common on discriminator outputs).
    Sigmoid,
}

impl Activation {
    /// Whether an activation pass is performed at all.
    pub fn is_some(self) -> bool {
        self != Activation::None
    }
}

/// The main operation a layer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerOp {
    /// A fully-connected projection (e.g. latent vector → initial feature map).
    /// The input is flattened; the output shape is given by the layer.
    Projection,
    /// A conventional, data-reducing convolution.
    Conv(ConvParams),
    /// A data-expanding transposed convolution.
    TConv(ConvParams),
}

impl LayerOp {
    /// Whether the operation is a transposed convolution.
    pub fn is_tconv(&self) -> bool {
        matches!(self, LayerOp::TConv(_))
    }

    /// Whether the operation is a conventional convolution.
    pub fn is_conv(&self) -> bool {
        matches!(self, LayerOp::Conv(_))
    }

    /// The convolution parameters, when the operation has them.
    pub fn conv_params(&self) -> Option<ConvParams> {
        match self {
            LayerOp::Conv(p) | LayerOp::TConv(p) => Some(*p),
            LayerOp::Projection => None,
        }
    }
}

/// One layer of a generator or discriminator network.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable layer name (unique within a network).
    pub name: String,
    /// The operation performed.
    pub op: LayerOp,
    /// Input feature-map shape.
    pub input: Shape,
    /// Output feature-map shape.
    pub output: Shape,
    /// Activation applied to the output.
    pub activation: Activation,
}

impl Layer {
    /// Creates a convolution layer, computing its output shape.
    ///
    /// # Errors
    /// Propagates geometry errors when the convolution would produce an empty
    /// output.
    pub fn conv(
        name: impl Into<String>,
        input: Shape,
        out_channels: usize,
        params: ConvParams,
        activation: Activation,
    ) -> TensorResult<Self> {
        let output = params.output_shape(input, out_channels)?;
        Ok(Layer {
            name: name.into(),
            op: if params.is_transposed() {
                LayerOp::TConv(params)
            } else {
                LayerOp::Conv(params)
            },
            input,
            output,
            activation,
        })
    }

    /// Creates a fully-connected projection layer with an explicit output shape.
    pub fn projection(
        name: impl Into<String>,
        input: Shape,
        output: Shape,
        activation: Activation,
    ) -> Self {
        Layer {
            name: name.into(),
            op: LayerOp::Projection,
            input,
            output,
            activation,
        }
    }

    /// Whether the layer is a transposed convolution.
    pub fn is_tconv(&self) -> bool {
        self.op.is_tconv()
    }

    /// Whether the layer is a conventional convolution.
    pub fn is_conv(&self) -> bool {
        self.op.is_conv()
    }

    /// Number of weight parameters in the layer.
    pub fn weight_count(&self) -> u64 {
        match &self.op {
            LayerOp::Projection => self.input.volume() as u64 * self.output.volume() as u64,
            LayerOp::Conv(p) | LayerOp::TConv(p) => {
                self.output.channels as u64
                    * self.input.channels as u64
                    * p.kernel.0 as u64
                    * p.kernel.1 as u64
                    * p.kernel.2 as u64
            }
        }
    }

    /// Multiply-accumulate operations a dense execution performs. For
    /// transposed convolutions this is counted over the zero-inserted input,
    /// matching the "conventional convolution dataflow" of the paper.
    pub fn dense_macs(&self) -> u64 {
        match &self.op {
            LayerOp::Projection => self.input.volume() as u64 * self.output.volume() as u64,
            LayerOp::Conv(p) | LayerOp::TConv(p) => p
                .dense_macs(self.input, self.output.channels)
                .expect("layer geometry validated at construction"),
        }
    }

    /// Multiply-accumulate operations whose input operand is an original
    /// (non-inserted) element — the work GANAX actually performs.
    pub fn consequential_macs(&self) -> u64 {
        match &self.op {
            LayerOp::Projection => self.dense_macs(),
            LayerOp::Conv(p) | LayerOp::TConv(p) => p
                .consequential_macs(self.input, self.output.channels)
                .expect("layer geometry validated at construction"),
        }
    }

    /// Fraction of dense multiply-adds that are inconsequential (hit inserted
    /// zeros). Zero for conventional convolutions and projections.
    pub fn inconsequential_fraction(&self) -> f64 {
        let dense = self.dense_macs();
        if dense == 0 {
            return 0.0;
        }
        1.0 - self.consequential_macs() as f64 / dense as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input_4x4x1024() -> Shape {
        Shape::new_2d(1024, 4, 4)
    }

    #[test]
    fn conv_layer_shapes_and_counts() {
        let params = ConvParams::conv_2d(5, 2, 2);
        let layer = Layer::conv(
            "disc1",
            Shape::new_2d(3, 64, 64),
            64,
            params,
            Activation::LeakyRelu,
        )
        .unwrap();
        assert!(layer.is_conv());
        assert!(!layer.is_tconv());
        assert_eq!(layer.output, Shape::new_2d(64, 32, 32));
        assert_eq!(layer.weight_count(), 64 * 3 * 25);
        assert_eq!(layer.dense_macs(), layer.consequential_macs());
        assert_eq!(layer.inconsequential_fraction(), 0.0);
    }

    #[test]
    fn tconv_layer_inconsequential_fraction() {
        let params = ConvParams::transposed_2d(5, 2, 2).with_output_padding(0, 1, 1);
        let layer = Layer::conv("gen1", input_4x4x1024(), 512, params, Activation::Relu).unwrap();
        assert!(layer.is_tconv());
        assert_eq!(layer.output, Shape::new_2d(512, 8, 8));
        let frac = layer.inconsequential_fraction();
        assert!(frac > 0.6 && frac < 0.85, "fraction = {frac}");
    }

    #[test]
    fn projection_layer_counts() {
        let layer = Layer::projection(
            "project",
            Shape::new_2d(100, 1, 1),
            input_4x4x1024(),
            Activation::Relu,
        );
        assert_eq!(layer.dense_macs(), 100 * 1024 * 16);
        assert_eq!(layer.consequential_macs(), layer.dense_macs());
        assert_eq!(layer.weight_count(), 100 * 1024 * 16);
        assert_eq!(layer.inconsequential_fraction(), 0.0);
    }

    #[test]
    fn stride_one_tconv_has_only_border_inconsequentials() {
        let params = ConvParams::transposed_2d(3, 1, 1);
        let layer = Layer::conv(
            "refine",
            Shape::new_2d(64, 32, 32),
            64,
            params,
            Activation::Relu,
        )
        .unwrap();
        // No inserted zeros; only the implicit border makes a few taps fall
        // outside, so the fraction is small but non-negative.
        let frac = layer.inconsequential_fraction();
        assert!((0.0..0.1).contains(&frac), "fraction = {frac}");
    }

    #[test]
    fn layer_op_accessors() {
        let p = ConvParams::transposed_2d(4, 2, 1);
        assert!(LayerOp::TConv(p).is_tconv());
        assert!(!LayerOp::TConv(p).is_conv());
        assert_eq!(LayerOp::TConv(p).conv_params(), Some(p));
        assert_eq!(LayerOp::Projection.conv_params(), None);
    }

    #[test]
    fn activation_is_some() {
        assert!(!Activation::None.is_some());
        assert!(Activation::Relu.is_some());
        assert!(Activation::Tanh.is_some());
    }
}
