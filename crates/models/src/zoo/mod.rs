//! The six GAN workloads of Table I.
//!
//! Each submodule re-derives one network from the architecture published in the
//! original GAN paper, constrained so that the per-network layer counts match
//! Table I of the GANAX paper. The GANAX paper does not publish the layer
//! hyper-parameters it used, so these are the documented approximations this
//! reproduction evaluates; the properties the evaluation depends on — output
//! resolutions, stride/kernel choices and hence the zero-insertion profiles —
//! follow the original architectures.

mod artgan;
mod dcgan;
mod discogan;
mod gpgan;
mod magan;
mod three_d_gan;

pub use artgan::art_gan;
pub use dcgan::dcgan;
pub use discogan::disco_gan;
pub use gpgan::gp_gan;
pub use magan::magan;
pub use three_d_gan::three_d_gan;

use crate::gan::GanModel;

/// All six evaluated GANs, in the order used throughout the paper's figures.
pub fn all_models() -> Vec<GanModel> {
    vec![
        three_d_gan(),
        art_gan(),
        dcgan(),
        disco_gan(),
        gp_gan(),
        magan(),
    ]
}

/// Looks a model up by its Table I name (case-insensitive).
pub fn by_name(name: &str) -> Option<GanModel> {
    all_models()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
}

/// A reduced-geometry generator for cycle-level end-to-end execution
/// ([`crate::Network::reduced`]): channel counts capped at `max_channels`,
/// volumetric layers flattened to their 2-D cross-section, the spatial
/// dataflow preserved. Returns `None` for unknown model names.
pub fn reduced_generator(name: &str, max_channels: usize) -> Option<crate::Network> {
    let model = by_name(name)?;
    Some(
        model
            .generator
            .reduced(max_channels)
            .expect("zoo generators have valid 2-D cross-sections"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layer counts in the order (generator conv, generator tconv,
    /// discriminator conv, discriminator tconv).
    type LayerCounts = (usize, usize, usize, usize);

    /// Table I of the paper: name, year and layer counts per model.
    const TABLE_ONE: &[(&str, u16, LayerCounts)] = &[
        ("3D-GAN", 2016, (0, 4, 5, 0)),
        ("ArtGAN", 2017, (0, 5, 6, 0)),
        ("DCGAN", 2015, (0, 4, 5, 0)),
        ("DiscoGAN", 2017, (5, 4, 5, 0)),
        ("GP-GAN", 2017, (0, 4, 5, 0)),
        ("MAGAN", 2017, (0, 6, 6, 6)),
    ];

    #[test]
    fn zoo_matches_table_one_layer_counts() {
        for (name, year, counts) in TABLE_ONE {
            let model = by_name(name).unwrap_or_else(|| panic!("missing model {name}"));
            assert_eq!(model.year, *year, "{name} year");
            assert_eq!(&model.table_one_row(), counts, "{name} layer counts");
        }
    }

    #[test]
    fn all_models_returns_six_distinct_models() {
        let models = all_models();
        assert_eq!(models.len(), 6);
        let mut names: Vec<_> = models.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn by_name_is_case_insensitive_and_total() {
        assert!(by_name("dcgan").is_some());
        assert!(by_name("3d-gan").is_some());
        assert!(by_name("NoSuchGAN").is_none());
    }

    #[test]
    fn generators_are_dominated_by_transposed_convolutions() {
        for model in all_models() {
            let stats = model.generator.op_stats();
            assert!(
                stats.tconv_dense_macs() > stats.total_dense_macs() / 2,
                "{} generator should spend most MACs in transposed convolutions",
                model.name
            );
        }
    }

    #[test]
    fn figure_one_zero_fraction_ordering() {
        // The qualitative claims of Figure 1 and Section VI:
        //  * 3D-GAN has the largest fraction of inconsequential operations (~80%),
        //  * MAGAN has the smallest,
        //  * the average across models exceeds 60%.
        let models = all_models();
        let frac = |name: &str| {
            models
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .generator
                .op_stats()
                .tconv_inconsequential_fraction()
        };
        let three_d = frac("3D-GAN");
        let magan = frac("MAGAN");
        assert!(three_d > 0.78, "3D-GAN fraction = {three_d}");
        for model in &models {
            let f = model.generator.op_stats().tconv_inconsequential_fraction();
            assert!(f <= three_d + 1e-9, "{} exceeds 3D-GAN", model.name);
            assert!(f >= magan - 1e-9, "{} below MAGAN", model.name);
        }
        let avg: f64 = models
            .iter()
            .map(|m| m.generator.op_stats().tconv_inconsequential_fraction())
            .sum::<f64>()
            / models.len() as f64;
        assert!(avg > 0.60, "average fraction = {avg}");
        assert!(magan < 0.40, "MAGAN fraction = {magan}");
    }

    #[test]
    fn discriminators_contain_no_inserted_zeros_except_magan() {
        for model in all_models() {
            let stats = model.discriminator.op_stats();
            if model.name == "MAGAN" {
                // MAGAN's discriminator is an auto-encoder and does contain
                // transposed convolutions (Table I lists 6).
                assert!(stats.tconv_dense_macs() > 0);
            } else {
                assert_eq!(stats.tconv_dense_macs(), 0, "{}", model.name);
            }
        }
    }

    #[test]
    fn every_generator_reduces_to_a_2d_machine_workload() {
        for model in all_models() {
            let reduced = reduced_generator(&model.name, 4)
                .unwrap_or_else(|| panic!("missing model {}", model.name));
            for layer in reduced.layers() {
                assert!(layer.input.depth <= 1, "{}: {}", model.name, layer.name);
                assert!(layer.output.channels <= 4, "{}: {}", model.name, layer.name);
            }
            // Spatial output resolution is preserved.
            assert_eq!(
                reduced.output_shape().height,
                model.generator.output_shape().height,
                "{}",
                model.name
            );
        }
        assert!(reduced_generator("NoSuchGAN", 4).is_none());
    }

    #[test]
    fn output_resolutions_are_plausible() {
        let models = all_models();
        for model in &models {
            let out = model.generator.output_shape();
            assert!(
                out.height >= 32 && out.height <= 128,
                "{} output {}",
                model.name,
                out
            );
        }
        // 3D-GAN generates 64^3 volumes.
        let three_d = models.iter().find(|m| m.name == "3D-GAN").unwrap();
        let out = three_d.generator.output_shape();
        assert_eq!((out.depth, out.height, out.width), (64, 64, 64));
    }
}
