//! Records the build profile so every result line names the build it
//! came from.

fn main() {
    for key in ["PROFILE", "OPT_LEVEL", "DEBUG", "TARGET"] {
        let value = std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
        println!("cargo:rustc-env=FLOWBENCH_{key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
