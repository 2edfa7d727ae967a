//! Checkpointing: save/restore a model's flat parameter vector.
//!
//! Format: a 16-byte header (`b"SASG"`, format version, parameter count)
//! followed by little-endian `f32`s. The count is validated on load so a
//! checkpoint can never be written into a mismatched architecture
//! silently.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::model::Model;

const MAGIC: &[u8; 4] = b"SASG";
const VERSION: u32 = 1;

/// Write `model`'s parameters to `path`.
pub fn save_checkpoint(model: &Model, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(model.param_len() as u64).to_le_bytes())?;
    for v in model.params() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Load parameters from `path` into `model`.
///
/// # Errors
/// Returns `InvalidData` if the file is not a checkpoint, has a different
/// format version, or stores a different parameter count.
pub fn load_checkpoint(model: &mut Model, path: &Path) -> io::Result<()> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a SASGD checkpoint",
        ));
    }
    let mut v4 = [0u8; 4];
    r.read_exact(&mut v4)?;
    let version = u32::from_le_bytes(v4);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported checkpoint version {version}"),
        ));
    }
    let mut v8 = [0u8; 8];
    r.read_exact(&mut v8)?;
    let count = u64::from_le_bytes(v8) as usize;
    if count != model.param_len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint has {count} parameters, model has {}",
                model.param_len()
            ),
        ));
    }
    let mut params = vec![0.0f32; count];
    let mut buf = [0u8; 4];
    for p in &mut params {
        r.read_exact(&mut buf)?;
        *p = f32::from_le_bytes(buf);
    }
    // Reject trailing garbage.
    if r.read(&mut buf)? != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes in checkpoint",
        ));
    }
    model.write_params(&params);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use sasgd_tensor::SeedRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sasgd_ckpt_{name}_{}", std::process::id()))
    }

    #[test]
    fn roundtrip_restores_exact_parameters() {
        let path = tmp("roundtrip");
        let m1 = models::tiny_mlp(5, 7, 3, &mut SeedRng::new(1));
        save_checkpoint(&m1, &path).expect("save");
        let mut m2 = models::tiny_mlp(5, 7, 3, &mut SeedRng::new(99));
        assert_ne!(m1.param_vector(), m2.param_vector());
        load_checkpoint(&mut m2, &path).expect("load");
        assert_eq!(m1.param_vector(), m2.param_vector());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_architecture_is_rejected() {
        let path = tmp("arch");
        let m1 = models::tiny_mlp(5, 7, 3, &mut SeedRng::new(1));
        save_checkpoint(&m1, &path).expect("save");
        let mut other = models::tiny_mlp(6, 7, 3, &mut SeedRng::new(1));
        let err = load_checkpoint(&mut other, &path).expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_file_is_rejected() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a checkpoint").expect("write");
        let mut m = models::tiny_mlp(2, 2, 2, &mut SeedRng::new(1));
        let err = load_checkpoint(&mut m, &path).expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmp("trunc");
        let m1 = models::tiny_mlp(5, 7, 3, &mut SeedRng::new(1));
        save_checkpoint(&m1, &path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
        let mut m2 = models::tiny_mlp(5, 7, 3, &mut SeedRng::new(2));
        assert!(load_checkpoint(&mut m2, &path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let path = tmp("trail");
        let m1 = models::tiny_mlp(3, 3, 2, &mut SeedRng::new(1));
        save_checkpoint(&m1, &path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &bytes).expect("extend");
        let mut m2 = models::tiny_mlp(3, 3, 2, &mut SeedRng::new(2));
        assert!(load_checkpoint(&mut m2, &path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
