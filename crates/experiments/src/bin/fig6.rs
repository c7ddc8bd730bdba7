//! Fig 6 — (a) similarity matrix of the normalized per-service volume
//! PDFs; (b) silhouette score across cluster counts.

use mtd_analysis::clustering::cluster_services;
use mtd_analysis::report::{text_table, write_csv};
use mtd_analysis::similarity::service_similarity;

fn main() {
    let _telemetry = mtd_experiments::telemetry_from_env();
    let (_, _, catalog, dataset) = mtd_experiments::build_eval();

    let sim = service_similarity(&dataset).expect("similarity");
    let clu = cluster_services(&sim).expect("clustering");

    println!("Fig 6 — service clustering on pairwise EMD of normalized PDFs\n");
    println!("3-cluster membership (paper: A streaming / B messaging / C outliers):");
    for (label, members) in clu.cluster_members().iter().enumerate() {
        let names: Vec<&str> = members.iter().map(|i| sim.names[*i].as_str()).collect();
        println!("  cluster {}: {}", label, names.join(", "));
    }

    // Class purity against ground truth, classes in name order so every
    // run prints the same bytes.
    let mut per_class = std::collections::BTreeMap::new();
    for (i, name) in sim.names.iter().enumerate() {
        if let Some(s) = catalog.by_name(name) {
            per_class
                .entry(format!("{:?}", s.class))
                .or_insert_with(Vec::new)
                .push(clu.labels3[i]);
        }
    }
    println!("\nground-truth class -> cluster votes:");
    for (class, labels) in &per_class {
        println!("  {class}: {labels:?}");
    }

    let rows: Vec<Vec<String>> = clu
        .silhouette
        .iter()
        .take(12)
        .map(|(k, s)| vec![k.to_string(), format!("{s:.3}")])
        .collect();
    println!("\nFig 6b — silhouette profile (paper: drop after 3 clusters):");
    println!("{}", text_table(&["k", "silhouette"], &rows));

    let dir = mtd_experiments::results_dir();
    let mut matrix_csv = Vec::new();
    for (i, a) in sim.names.iter().enumerate() {
        for (j, b) in sim.names.iter().enumerate() {
            matrix_csv.push(vec![
                a.clone(),
                b.clone(),
                format!("{:.6}", sim.matrix[i][j]),
            ]);
        }
    }
    write_csv(
        &dir.join("fig6a_matrix.csv"),
        &["service_a", "service_b", "emd"],
        &matrix_csv,
    )
    .expect("csv");
    let sil_csv: Vec<Vec<String>> = clu
        .silhouette
        .iter()
        .map(|(k, s)| vec![k.to_string(), format!("{s:.6}")])
        .collect();
    write_csv(
        &dir.join("fig6b_silhouette.csv"),
        &["k", "silhouette"],
        &sil_csv,
    )
    .expect("csv");
    // Dendrogram merge sequence (node ids: 0..n leaves, then internals).
    let merges_csv: Vec<Vec<String>> = clu
        .dendrogram
        .merges()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let name = |node: usize| {
                if node < sim.names.len() {
                    sim.names[node].clone()
                } else {
                    format!("node{node}")
                }
            };
            vec![
                (sim.names.len() + i).to_string(),
                name(m.a),
                name(m.b),
                format!("{:.6}", m.distance),
            ]
        })
        .collect();
    write_csv(
        &dir.join("fig6_dendrogram.csv"),
        &["new_node", "merged_a", "merged_b", "distance"],
        &merges_csv,
    )
    .expect("csv");
    println!("series written to {}", dir.display());
}
