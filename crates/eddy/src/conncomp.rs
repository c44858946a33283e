//! Connected-component labelling and iterative-threshold eddy detection
//! (the `connComp` pipeline of Fig 4).

use cmm_forkjoin::ForkJoinPool;

use crate::slices::{frame, map_slices};

/// Label 4-connected components of a binary `rows × cols` frame
/// (row-major) with 1..k (0 = background). Uses union-find over a
/// two-pass scan.
pub fn connected_components(b: &[bool], rows: usize, cols: usize) -> Vec<i32> {
    assert_eq!(b.len(), rows * cols, "connComp labels 2-D frames");
    let mut parent: Vec<u32> = (0..(rows * cols) as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    }
    fn union(parent: &mut [u32], a: u32, b: u32) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }

    for i in 0..rows {
        for j in 0..cols {
            let cell = i * cols + j;
            if !b[cell] {
                continue;
            }
            if i > 0 && b[cell - cols] {
                union(&mut parent, cell as u32, (cell - cols) as u32);
            }
            if j > 0 && b[cell - 1] {
                union(&mut parent, cell as u32, (cell - 1) as u32);
            }
        }
    }

    // Second pass: compress + assign dense labels in scan order.
    let mut labels = vec![0i32; rows * cols];
    let mut next = 1i32;
    let mut label_of_root: std::collections::HashMap<u32, i32> = std::collections::HashMap::new();
    for cell in 0..rows * cols {
        if !b[cell] {
            continue;
        }
        let root = find(&mut parent, cell as u32);
        let l = *label_of_root.entry(root).or_insert_with(|| {
            let l = next;
            next += 1;
            l
        });
        labels[cell] = l;
    }
    labels
}

/// Binary-threshold one float `rows × cols` frame at `threshold` and
/// label it (the body of the Fig 4 loop for one threshold).
pub fn conn_comp_frame(frame: &[f32], rows: usize, cols: usize, threshold: f32) -> Vec<i32> {
    let binary: Vec<bool> = frame.iter().map(|&x| x < threshold).collect();
    connected_components(&binary, rows, cols)
}

/// Label every time frame of a `lat × lon × time` SSH cube in parallel
/// (`matrixMap(connComp, ssh, [0, 1])`, Fig 4 line 14), each frame
/// through `label(frame)`. Frames are strided in the cube: each task
/// gathers its own, and the labels are scattered back in order.
pub fn label_frames(
    pool: &ForkJoinPool,
    ssh: &[f32],
    dims: [usize; 3],
    label: impl Fn(&[f32]) -> Vec<i32> + Sync,
) -> Vec<i32> {
    let [lat, lon, time] = dims;
    let cells = lat * lon;
    let frames = map_slices(pool, time, |t| label(&frame(ssh, dims, t)));
    let mut out = vec![0i32; ssh.len()];
    if cells > 0 {
        for (t, labels) in frames.chunks_exact(cells).enumerate() {
            for (cell, &l) in labels.iter().enumerate() {
                out[cell * time + t] = l;
            }
        }
    }
    out
}

/// Detection parameters for [`detect_eddies`].
#[derive(Debug, Clone)]
pub struct EddyParams {
    /// Height threshold: cells below it are eddy candidates.
    pub threshold: f32,
    /// Minimum component size (cells) to count as an eddy.
    pub min_size: usize,
    /// Maximum component size.
    pub max_size: usize,
}

impl Default for EddyParams {
    fn default() -> Self {
        EddyParams {
            threshold: -0.3,
            min_size: 4,
            max_size: 4000,
        }
    }
}

/// Label every time frame of a `lat × lon × time` SSH cube in parallel
/// ([`label_frames`]) and zero out components whose size is outside the
/// plausible eddy range.
pub fn detect_eddies(
    pool: &ForkJoinPool,
    ssh: &[f32],
    dims: [usize; 3],
    params: &EddyParams,
) -> Vec<i32> {
    let [lat, lon, _] = dims;
    label_frames(pool, ssh, dims, |frame| {
        let labels = conn_comp_frame(frame, lat, lon, params.threshold);
        filter_components_by_size(&labels, params.min_size, params.max_size)
    })
}

/// Zero out labels whose component size is outside `[min, max]`; the
/// criteria "typical of ocean eddies" (§IV).
pub fn filter_components_by_size(labels: &[i32], min: usize, max: usize) -> Vec<i32> {
    let max_label = labels.iter().copied().max().unwrap_or(0);
    let mut sizes = vec![0usize; (max_label + 1) as usize];
    for &l in labels {
        sizes[l as usize] += 1;
    }
    labels
        .iter()
        .map(|&l| {
            if l > 0 && (min..=max).contains(&sizes[l as usize]) {
                l
            } else {
                0
            }
        })
        .collect()
}

/// Number of distinct nonzero labels in a labelling.
pub fn count_components(labels: &[i32]) -> usize {
    let mut seen: Vec<i32> = labels.iter().copied().filter(|&l| l > 0).collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Canonicalize a labelling: relabel components by first occurrence in
/// scan order, so structurally equal labelings compare equal regardless
/// of the label values an algorithm chose.
pub fn canonical_labels(labels: &[i32]) -> Vec<i32> {
    let mut map: std::collections::HashMap<i32, i32> = std::collections::HashMap::new();
    let mut next = 1i32;
    labels
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                *map.entry(l).or_insert_with(|| {
                    let v = next;
                    next += 1;
                    v
                })
            }
        })
        .collect()
}
