//! `wino` — command-line front-end for the winograd-meta toolkit.
//!
//! ```text
//! wino matrices <m> <r>                 print exact A/G/B for F(m,r)
//! wino recipe   <m> <r> [--naive]       print the transformation recipes
//! wino kernel   <variant> <m> [conv]    print a generated GPU kernel
//! wino tune     [conv] [--device NAME]  brute-force tune a convolution
//! wino accuracy <alpha> [--trials N]    measure relative error for α
//! wino table4                           list the 31 benchmark convolutions
//! ```
//!
//! `[conv]` is `ksz,stride,pad,out_ch,batch,in_h,in_w,in_ch`
//! (default `3,1,1,64,1,14,14,32`).

use std::process::ExitCode;

use winograd_meta::prelude::*;
use winograd_meta::transform::measure_tile_error;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("matrices") => cmd_matrices(&args[1..]),
        Some("recipe") => cmd_recipe(&args[1..]),
        Some("kernel") => cmd_kernel(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("accuracy") => cmd_accuracy(&args[1..]),
        Some("table4") => cmd_table4(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try 'wino help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "wino — Winograd convolution generator (EuroSys '20 reproduction)\n\n\
         USAGE:\n\
         \x20 wino matrices <m> <r>                 exact A/G/B for F(m,r)\n\
         \x20 wino recipe   <m> <r> [--naive]       transformation recipes + op counts\n\
         \x20 wino kernel   <variant> <m> [conv]    generated GPU kernel source\n\
         \x20                                        variant: fused|nonfused|direct|im2col\n\
         \x20 wino tune     [conv] [--device NAME]  brute-force tune (gtx|rx|mali)\n\
         \x20 wino accuracy <alpha> [--trials N]    relative error for internal tile size\n\
         \x20 wino table4                           the paper's 31 benchmark convolutions\n\n\
         [conv] = ksz,stride,pad,out_ch,batch,in_h,in_w,in_ch  (default 3,1,1,64,1,14,14,32)"
    );
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{what}: expected a number, got '{s}'"))
}

fn parse_spec(args: &[String]) -> Result<WinogradSpec, String> {
    let m = parse_usize(args.first().ok_or("missing <m>")?, "m")?;
    let r = parse_usize(args.get(1).ok_or("missing <r>")?, "r")?;
    WinogradSpec::new(m, r).map_err(|e| e.to_string())
}

fn parse_conv(s: &str) -> Result<ConvDesc, String> {
    let parts: Result<Vec<usize>, String> = s
        .split(',')
        .map(|p| parse_usize(p.trim(), "conv field"))
        .collect();
    let parts = parts?;
    if parts.len() != 8 {
        return Err(format!(
            "conv spec needs 8 comma-separated fields, got {}",
            parts.len()
        ));
    }
    Ok(ConvDesc::new(
        parts[0], parts[1], parts[2], parts[3], parts[4], parts[5], parts[6], parts[7],
    ))
}

fn conv_from_args(args: &[String]) -> Result<ConvDesc, String> {
    args.iter()
        .find(|a| a.contains(','))
        .map(|s| parse_conv(s))
        .unwrap_or_else(|| parse_conv("3,1,1,64,1,14,14,32"))
}

fn cmd_matrices(args: &[String]) -> Result<(), String> {
    let spec = parse_spec(args)?;
    let points = table3_points(spec.alpha()).map_err(|e| e.to_string())?;
    let mats = toom_cook_matrices(spec, &points).map_err(|e| e.to_string())?;
    println!(
        "{spec}  (alpha = {}, points {:?})",
        spec.alpha(),
        strs(&points)
    );
    println!("\nG ({}x{}):\n{}", mats.g.rows(), mats.g.cols(), mats.g);
    println!(
        "B^T ({}x{}):\n{}",
        mats.b_t.rows(),
        mats.b_t.cols(),
        mats.b_t
    );
    println!(
        "A^T ({}x{}):\n{}",
        mats.a_t.rows(),
        mats.a_t.cols(),
        mats.a_t
    );
    Ok(())
}

fn strs(points: &[Rational]) -> Vec<String> {
    points.iter().map(|p| p.to_string()).collect()
}

fn cmd_recipe(args: &[String]) -> Result<(), String> {
    let spec = parse_spec(args)?;
    let naive = args.iter().any(|a| a == "--naive");
    let recipes = if naive {
        TransformRecipes::generate_naive(spec)
    } else {
        TransformRecipes::generate(spec, RecipeOptions::optimized())
    }
    .map_err(|e| e.to_string())?;
    for (name, recipe) in [
        ("filter (G)", &recipes.filter),
        ("input (B^T)", &recipes.input),
        ("output (A^T)", &recipes.output),
    ] {
        println!("=== {name}: {} -> {} ===", recipe.n_in, recipe.n_out);
        print!("{recipe}");
        println!("ops: {}\n", recipe.op_count());
    }
    Ok(())
}

fn cmd_kernel(args: &[String]) -> Result<(), String> {
    let variant_name = args.first().ok_or("missing <variant>")?.as_str();
    let desc = conv_from_args(args)?;
    let variant = match variant_name {
        "direct" => PlanVariant::Direct,
        "im2col" => PlanVariant::Im2col,
        "fused" | "nonfused" => {
            let m = args
                .get(1)
                .filter(|a| !a.contains(','))
                .map(|a| parse_usize(a, "m"))
                .transpose()?
                .unwrap_or(6);
            if variant_name == "fused" {
                PlanVariant::WinogradFused { m }
            } else {
                PlanVariant::WinogradNonFused { m }
            }
        }
        other => return Err(format!("unknown variant '{other}'")),
    };
    let plan =
        generate_plan(&desc, variant, &CodegenOptions::default()).map_err(|e| e.to_string())?;
    println!("{plan}");
    for k in &plan.kernels {
        println!("==================== {} ====================", k.name);
        println!("{}", k.source);
    }
    Ok(())
}

fn cmd_tune(args: &[String]) -> Result<(), String> {
    let desc = conv_from_args(args)?;
    let device = match args
        .iter()
        .position(|a| a == "--device")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None | Some("gtx") => gtx_1080_ti(),
        Some("rx") => rx_580(),
        Some("mali") => mali_g71(),
        Some(other) => return Err(format!("unknown device '{other}' (gtx|rx|mali)")),
    };
    println!("tuning {desc} on {} ...", device.name);
    let report = tune(&desc, &device).map_err(|e| e.to_string())?;
    println!(
        "evaluated {} points ({} rejected as unlaunchable)\n",
        report.evaluated, report.rejected
    );
    println!("best: {:?}", report.best.point);
    println!("      {:.4} ms (modelled)", report.best.time_ms);
    println!("\nper-variant bests:");
    for e in &report.per_variant_best {
        println!("  {:>10.4} ms  {:?}", e.time_ms, e.point);
    }
    Ok(())
}

fn cmd_accuracy(args: &[String]) -> Result<(), String> {
    let alpha = parse_usize(args.first().ok_or("missing <alpha>")?, "alpha")?;
    let trials = args
        .iter()
        .position(|a| a == "--trials")
        .and_then(|i| args.get(i + 1))
        .map(|s| parse_usize(s, "trials"))
        .transpose()?
        .unwrap_or(1000);
    if !(4..=16).contains(&alpha) {
        return Err(format!("alpha {alpha} outside the supported range 4..=16"));
    }
    let spec = WinogradSpec::new(alpha - 2, 3).map_err(|e| e.to_string())?;
    let points = table3_points(alpha).map_err(|e| e.to_string())?;
    let stats = measure_tile_error(spec, &points, trials, 0xACC).map_err(|e| e.to_string())?;
    println!(
        "alpha = {alpha} ({spec}), {trials} trials, points {:?}",
        strs(&points)
    );
    println!("median relative error : {:.3e}", stats.median);
    println!(
        "quartiles             : [{:.3e}, {:.3e}]",
        stats.q1, stats.q3
    );
    println!(
        "range                 : [{:.3e}, {:.3e}]",
        stats.min, stats.max
    );
    if let Some(paper) = winograd_meta::transform::table3_paper_error(alpha) {
        println!("paper (Table 3)       : {paper:.3e}");
    }
    Ok(())
}

fn cmd_table4() -> Result<(), String> {
    println!("The paper's 31 benchmark convolutions (Table 4):\n");
    for (i, d) in table4_convs().iter().enumerate() {
        println!("{:>2}. {:>9.3e} FLOPs  {}", i + 1, d.flops() as f64, d);
    }
    Ok(())
}
