//! The commit in every result row comes from `.git` files alone.

use perfbench::host::commit;
use std::fs;
use std::path::PathBuf;

fn checkout(name: &str, head: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join(".git/refs/heads")).unwrap();
    fs::write(root.join(".git/HEAD"), head).unwrap();
    root
}

#[test]
fn commit_follows_head_to_a_loose_or_packed_ref() {
    let loose = checkout("loose", "ref: refs/heads/main\n");
    fs::write(loose.join(".git/refs/heads/main"), "aaaa1111\n").unwrap();
    assert_eq!(commit(&loose), "aaaa1111");

    let packed = checkout("packed", "ref: refs/heads/dev\n");
    fs::write(
        packed.join(".git/packed-refs"),
        "# pack-refs with: peeled\nbbbb2222 refs/heads/dev\n",
    )
    .unwrap();
    assert_eq!(commit(&packed), "bbbb2222");

    let detached = checkout("detached", "cccc3333\n");
    assert_eq!(commit(&detached), "cccc3333");
}

#[test]
fn commit_is_unknown_outside_a_git_checkout() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-git");
    fs::create_dir_all(&root).unwrap();
    assert_eq!(commit(&root), "unknown");
}
