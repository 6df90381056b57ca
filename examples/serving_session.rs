//! A complete serving session over a real socket: boot the TCP server on
//! an ephemeral loopback port, drive it with the line protocol, and watch
//! mutations, cached plans and backpressure at work.
//!
//! ```text
//! cargo run --example serving_session
//! ```

use repair_count::prelude::*;
use repair_count::workloads::employee_example;

fn main() -> std::io::Result<()> {
    // The paper's Example 1.1, served: Employee(id, name, dept) with
    // key(Employee) = {1}, two conflicting blocks, four repairs.
    let (db, keys) = employee_example();
    let engine = RepairEngine::new(db, keys).with_parallelism(2);
    let server = Server::start(engine, ServerConfig::bind("127.0.0.1:0"))?;
    println!("serving on {}", server.addr());

    let mut client = Client::connect(server.addr())?;
    let transcript = [
        "STATS",
        "COUNT auto EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)",
        "FREQ EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)",
        // Grow the employee-2 block: the total repair count is maintained
        // incrementally (4 -> 6) and only that block's plans re-derive.
        "INSERT Employee(2, 'Eve', 'Finance')",
        "FREQ EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)",
        "CERTAIN EXISTS n . Employee(2, n, 'IT')",
        "APPROX 0.25 0.1 42 EXISTS n . Employee(2, n, 'IT')",
        // Errors are replies, not dropped connections.
        "DELETE 99",
        "COUNT warp TRUE",
        "STATS",
    ];
    for line in transcript {
        println!("> {line}");
        println!("< {}", client.send(line)?);
    }

    // A query batch fans out across the engine's worker threads and
    // streams one reply per item after the header.
    println!("> BATCH (3 queries) END");
    for reply in client.send_batch(&[
        "COUNT auto EXISTS n . Employee(2, n, 'IT')",
        "DECIDE EXISTS n . Employee(3, n, 'IT')",
        "FREQ Employee(1, 'Bob', 'HR')",
    ])? {
        println!("< {reply}");
    }

    // A mutation batch is atomic: validated up front, applied as one
    // barrier, answered with one aggregated report.
    println!("> BATCH (2 mutations) END");
    for reply in client.send_batch(&[
        "INSERT Employee(3, 'Ann', 'IT')",
        "INSERT Employee(3, 'Kim', 'HR')",
    ])? {
        println!("< {reply}");
    }

    println!("> QUIT");
    println!("< {}", client.send("QUIT")?);

    server.shutdown();
    let stats = server.join();
    println!(
        "served {} commands over {} connections ({} busy rejections, {} recovered panics)",
        stats.commands, stats.connections, stats.busy_rejections, stats.recovered_panics
    );
    Ok(())
}
