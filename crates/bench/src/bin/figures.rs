//! Regenerates every table and figure of the GANAX paper's evaluation section.
//!
//! ```text
//! cargo run -p ganax-bench --bin figures            # everything
//! cargo run -p ganax-bench --bin figures -- fig8a   # one figure
//! cargo run -p ganax-bench --bin figures -- --json  # machine-readable dump
//! ```

use ganax::compare::ModelComparison;
use ganax::GanaxConfig;
use ganax_bench::{all_comparisons, figure1, figure10, figure11, figure8, figure9, pct, ratio};
use ganax_energy::{AreaModel, EnergyModel};
use ganax_models::zoo;

/// Every selection name `figures` accepts (besides `all`).
const SELECTIONS: [&str; 11] = [
    "table1", "fig1", "table2", "table3", "fig5", "fig8a", "fig8b", "fig9a", "fig9b", "fig10",
    "fig11",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let selections: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let unknown: Vec<&str> = selections
        .iter()
        .copied()
        .filter(|s| *s != "all" && !SELECTIONS.contains(s))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "figures: unknown selection(s) {}; valid names: all {}",
            unknown.join(" "),
            SELECTIONS.join(" ")
        );
        std::process::exit(2);
    }
    let all = selections.is_empty() || selections.contains(&"all");
    let wants = |name: &str| all || selections.contains(&name);

    let needs_comparisons = ["fig8a", "fig8b", "fig9a", "fig9b", "fig10", "fig11"]
        .iter()
        .any(|f| wants(f));
    let comparisons: Vec<ModelComparison> = if needs_comparisons {
        all_comparisons()
    } else {
        Vec::new()
    };

    if wants("table1") {
        print_table1();
    }
    if wants("fig1") {
        print_fig1(json);
    }
    if wants("table2") {
        print_table2();
    }
    if wants("table3") {
        print_table3();
    }
    if wants("fig5") {
        print_fig5();
    }
    if wants("fig8a") || wants("fig8b") {
        print_fig8(&comparisons, json);
    }
    if wants("fig9a") {
        print_fig9(&comparisons, false);
    }
    if wants("fig9b") {
        print_fig9(&comparisons, true);
    }
    if wants("fig10") {
        print_fig10(&comparisons);
    }
    if wants("fig11") {
        print_fig11(&comparisons);
    }
}

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

fn print_table1() {
    header("Table I: evaluated GAN models");
    println!(
        "{:<10} {:>5} {:>9} {:>10} {:>9} {:>10}  Description",
        "Model", "Year", "Gen Conv", "Gen TConv", "Dis Conv", "Dis TConv"
    );
    for gan in zoo::all_models() {
        let (gc, gt, dc, dt) = gan.table_one_row();
        println!(
            "{:<10} {:>5} {:>9} {:>10} {:>9} {:>10}  {}",
            gan.name, gan.year, gc, gt, dc, dt, gan.description
        );
    }
}

fn print_fig1(json: bool) {
    header("Figure 1: inconsequential operations in transposed convolution layers");
    let (rows, average) = figure1();
    if json {
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        return;
    }
    for row in &rows {
        println!("{:<10} {}", row.model, pct(row.inconsequential_fraction));
    }
    println!("{:<10} {}", "Average", pct(average));
}

fn print_table2() {
    header("Table II: energy model (pJ/bit and relative cost)");
    let model = EnergyModel::table_ii();
    println!("{:<26} {:>10} {:>14}", "Operation", "pJ/bit", "Relative");
    for (name, relative) in model.relative_costs() {
        let pj = match name {
            "Register File Access" => model.register_file_pj_per_bit,
            "16-bit Fixed Point PE" => model.pe_pj_per_bit,
            "Inter-PE Communication" => model.inter_pe_pj_per_bit,
            "Global Buffer Access" => model.global_buffer_pj_per_bit,
            _ => model.dram_pj_per_bit,
        };
        println!("{name:<26} {pj:>10.2} {relative:>13.1}x");
    }
}

fn print_table3() {
    header("Table III: area model (TSMC 45 nm)");
    let area = AreaModel::table_iii();
    println!("{:<28} {:>14}", "Unit", "Area (um^2)");
    for (name, value) in area.pe.entries() {
        println!("{name:<28} {value:>14.1}");
    }
    println!("{:<28} {:>14.1}", "Total area / PE", area.pe.total());
    println!(
        "{:<28} {:>14.1}",
        "Total PE array (16x16)",
        area.pe_array_area()
    );
    println!(
        "{:<28} {:>14.1}",
        "Global uOp buffer", area.global_uop_buffer
    );
    println!(
        "{:<28} {:>14.1}",
        "Global data buffer", area.global_data_buffer
    );
    println!(
        "{:<28} {:>14.1}",
        "Global instruction buffer", area.global_instruction_buffer
    );
    println!(
        "{:<28} {:>14.1}",
        "NoC + config buffers", area.noc_and_config
    );
    println!(
        "{:<28} {:>14.1}",
        "Global controller", area.global_controller
    );
    println!("{:<28} {:>14.1}", "GANAX total", area.ganax_total());
    println!(
        "{:<28} {:>14.1}",
        "Eyeriss baseline total",
        area.eyeriss_total()
    );
    println!(
        "{:<28} {:>13.1}%",
        "GANAX area overhead",
        GanaxConfig::paper().area_overhead() * 100.0
    );
}

fn print_fig5() {
    header("Figure 4/5 worked example: 4x4 input, 5x5 filter, 2x upsampling");
    use ganax_dataflow::{AxisPhases, OutputRowGroups};
    use ganax_tensor::ConvParams;
    let params = ConvParams::transposed_2d(5, 2, 2);
    let phases = AxisPhases::vertical(&params, 4).unwrap();
    let groups = OutputRowGroups::new(&phases, phases.output_extent());
    println!(
        "conventional compute-node utilization: {}",
        pct(groups.conventional_utilization())
    );
    println!(
        "reorganized  compute-node utilization: {}",
        pct(groups.reorganized_utilization())
    );
    println!(
        "conventional accumulation depth: {} cycles",
        groups.conventional_accumulation_depth()
    );
    println!(
        "reorganized accumulation depths: {:?} cycles",
        groups.reorganized_accumulation_depths()
    );
    for group in groups.groups() {
        println!(
            "  phase {}: output rows {:?} use filter rows {:?}",
            group.phase,
            group.rows,
            group.filter_rows.iter().map(|r| r + 1).collect::<Vec<_>>()
        );
    }
}

fn print_fig8(comparisons: &[ModelComparison], json: bool) {
    header("Figure 8: generative-model speedup and energy reduction over EYERISS");
    let (rows, speedup_geomean, energy_geomean) = figure8(comparisons);
    if json {
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        return;
    }
    println!(
        "{:<10} {:>10} {:>18}",
        "Model", "Speedup", "Energy reduction"
    );
    for row in &rows {
        println!(
            "{:<10} {:>10} {:>18}",
            row.model,
            ratio(row.speedup),
            ratio(row.energy_reduction)
        );
    }
    println!(
        "{:<10} {:>10} {:>18}",
        "Geomean",
        ratio(speedup_geomean),
        ratio(energy_geomean)
    );
}

fn print_fig9(comparisons: &[ModelComparison], energy: bool) {
    header(if energy {
        "Figure 9b: energy breakdown (normalized to EYERISS)"
    } else {
        "Figure 9a: runtime breakdown (normalized to EYERISS)"
    });
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "Model", "Eyeriss disc", "Eyeriss gen", "GANAX disc", "GANAX gen"
    );
    for row in figure9(comparisons, energy) {
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>14}",
            row.model,
            pct(row.eyeriss_discriminative),
            pct(row.eyeriss_generative),
            pct(row.ganax_discriminative),
            pct(row.ganax_generative)
        );
    }
}

fn print_fig10(comparisons: &[ModelComparison]) {
    header("Figure 10: generator energy by unit (normalized to EYERISS total)");
    println!(
        "{:<10} {:>6} {:>12} {:>12}",
        "Model", "Unit", "Eyeriss", "GANAX"
    );
    for row in figure10(comparisons) {
        println!(
            "{:<10} {:>6} {:>12} {:>12}",
            row.model,
            row.unit,
            pct(row.eyeriss),
            pct(row.ganax)
        );
    }
}

fn print_fig11(comparisons: &[ModelComparison]) {
    header("Figure 11: generator PE utilization");
    println!("{:<10} {:>10} {:>10}", "Model", "Eyeriss", "GANAX");
    let rows = figure11(comparisons);
    for row in &rows {
        println!(
            "{:<10} {:>10} {:>10}",
            row.model,
            pct(row.eyeriss_utilization),
            pct(row.ganax_utilization)
        );
    }
    let avg_e = rows.iter().map(|r| r.eyeriss_utilization).sum::<f64>() / rows.len() as f64;
    let avg_g = rows.iter().map(|r| r.ganax_utilization).sum::<f64>() / rows.len() as f64;
    println!("{:<10} {:>10} {:>10}", "Average", pct(avg_e), pct(avg_g));
}
