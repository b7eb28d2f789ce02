//! Integration tests asserting the qualitative claims of the paper's
//! evaluation section hold for the reproduction: who wins, by roughly what
//! factor, and where the extremes fall.

use ganax::compare::{compare_all, geometric_mean, ModelComparison, SimulatedComparison};
use ganax::GanaxConfig;
use ganax_models::zoo;

fn comparisons() -> Vec<ModelComparison> {
    compare_all()
}

#[test]
fn every_generator_speeds_up_and_no_discriminator_slows_down() {
    for report in comparisons() {
        assert!(
            report.generator_speedup() > 1.1,
            "{}: generator speedup {}",
            report.gan_name,
            report.generator_speedup()
        );
        if report.gan_name == "MAGAN" {
            // MAGAN's discriminator is an auto-encoder with transposed
            // convolutions (Table I), so GANAX legitimately accelerates it;
            // the paper likewise excludes its transposed layers from the
            // discriminator comparison.
            assert!(report.discriminator_speedup() >= 1.0);
        } else {
            assert!(
                (report.discriminator_speedup() - 1.0).abs() < 0.05,
                "{}: discriminator speedup {}",
                report.gan_name,
                report.discriminator_speedup()
            );
        }
    }
}

#[test]
fn geomean_speedup_and_energy_are_in_the_paper_ballpark() {
    let reports = comparisons();
    let speedup = geometric_mean(reports.iter().map(|r| r.generator_speedup()));
    let energy = geometric_mean(reports.iter().map(|r| r.generator_energy_reduction()));
    // Paper: 3.6x speedup and 3.1x energy reduction on average. The rebuilt
    // simulator is not the authors' testbed, so assert the ballpark (within
    // roughly a factor of 1.5 of the reported geomeans).
    assert!(
        speedup > 2.4 && speedup < 5.4,
        "geomean speedup = {speedup}"
    );
    assert!(
        energy > 2.0 && energy < 4.7,
        "geomean energy reduction = {energy}"
    );
}

#[test]
fn three_d_gan_is_the_best_case_and_magan_the_worst() {
    let reports = comparisons();
    let speedup_of = |name: &str| {
        reports
            .iter()
            .find(|r| r.gan_name == name)
            .unwrap()
            .generator_speedup()
    };
    let best = speedup_of("3D-GAN");
    let worst = speedup_of("MAGAN");
    for report in &reports {
        let s = report.generator_speedup();
        assert!(s <= best + 1e-9, "{} beats 3D-GAN", report.gan_name);
        assert!(s >= worst - 1e-9, "{} below MAGAN", report.gan_name);
    }
    // Paper: 6.1x for 3D-GAN, 1.3x for MAGAN.
    assert!(best > 4.0, "3D-GAN speedup = {best}");
    assert!(worst < 2.0, "MAGAN speedup = {worst}");
}

#[test]
fn ganax_utilization_is_high_across_the_zoo() {
    // Paper (Figure 11): around 90% PE utilization for GANAX on every GAN.
    for report in comparisons() {
        let (eyeriss, ganax) = report.generator_utilization();
        assert!(
            ganax > 0.6,
            "{}: GANAX utilization {}",
            report.gan_name,
            ganax
        );
        assert!(
            ganax > eyeriss + 0.1,
            "{}: GANAX {} vs Eyeriss {}",
            report.gan_name,
            ganax,
            eyeriss
        );
    }
}

#[test]
fn every_energy_category_is_reduced_on_generators() {
    // Paper (Figure 10): "GANAX reduces the energy consumption of all the
    // microarchitectural units."
    for report in comparisons() {
        for (category, eyeriss, ganax) in report.generator_unit_energy() {
            assert!(
                ganax <= eyeriss + 1e-12,
                "{} / {}: {} > {}",
                report.gan_name,
                category.label(),
                ganax,
                eyeriss
            );
        }
    }
}

#[test]
fn simulated_dcgan_generator_beats_the_eyeriss_baseline() {
    // The speedup/energy direction of Figure 8, asserted from *measured*
    // machine activity rather than the analytic model alone: the DCGAN
    // generator (channel-capped so the cycle-level run stays test-sized, with
    // the spatial dataflow and phase structure intact) is executed end to end
    // on the machine, cross-checked against the analytic model, and compared
    // against the Eyeriss baseline on the simulated layers.
    let network = zoo::reduced_generator("DCGAN", 16).expect("DCGAN is in the zoo");
    let weights = ganax_bench::network_weights(&network, 321);
    let input = ganax_bench::deterministic_tensor(network.input_shape(), 654);
    let report = SimulatedComparison::run(&network, &input, &weights)
        .expect("reduced DCGAN generator executes on the machine");

    assert!(
        report.is_consistent(),
        "machine activity diverged from the analytic model: {:?}",
        report
            .checks
            .iter()
            .filter(|c| !c.is_consistent())
            .collect::<Vec<_>>()
    );
    let speedup = report.simulated_speedup();
    let energy = report.simulated_energy_reduction();
    assert!(speedup > 1.0, "simulated generator speedup = {speedup}");
    assert!(
        energy > 1.0,
        "simulated generator energy reduction = {energy}"
    );
    // The measured direction agrees with the analytic full-size comparison
    // (both say GANAX wins on the generator).
    let analytic = ModelComparison::compare(&zoo::dcgan()).unwrap();
    assert!(analytic.generator_speedup() > 1.0);
    assert!(analytic.generator_energy_reduction() > 1.0);
}

#[test]
fn figure_one_average_exceeds_sixty_percent() {
    let fractions: Vec<f64> = zoo::all_models()
        .iter()
        .map(|m| m.generator.op_stats().tconv_inconsequential_fraction())
        .collect();
    let average = fractions.iter().sum::<f64>() / fractions.len() as f64;
    assert!(
        average > 0.6,
        "average inconsequential fraction = {average}"
    );
}

#[test]
fn area_overhead_matches_the_paper() {
    let overhead = GanaxConfig::paper().area_overhead();
    assert!(
        (overhead - 0.078).abs() < 0.01,
        "area overhead = {:.3}, paper reports ~0.078",
        overhead
    );
}

#[test]
fn table_one_layer_counts_match() {
    let expected = [
        ("3D-GAN", (0, 4, 5, 0)),
        ("ArtGAN", (0, 5, 6, 0)),
        ("DCGAN", (0, 4, 5, 0)),
        ("DiscoGAN", (5, 4, 5, 0)),
        ("GP-GAN", (0, 4, 5, 0)),
        ("MAGAN", (0, 6, 6, 6)),
    ];
    for (name, counts) in expected {
        let model = zoo::by_name(name).unwrap();
        assert_eq!(model.table_one_row(), counts, "{name}");
    }
}
