fn main() -> std::process::ExitCode {
    ri_benchmark::cli::main()
}
