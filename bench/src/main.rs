fn main() -> std::process::ExitCode {
    fineq_loadbench::cli::main(std::env::args().skip(1).collect())
}
