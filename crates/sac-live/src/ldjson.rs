//! The line-delimited-JSON transport: one protocol document per input line,
//! one reply line per request — a thin shell over [`SacService`].

use crate::SacService;
use sac_obs::Span;
use std::io::{BufRead, Write};

/// Serves LDJSON requests from `input` to `output` until EOF or a `quit`
/// command.  Blank lines are skipped; every other line produces exactly one
/// reply line (malformed input included, as an error reply).
///
/// Stream IO is timed into
/// `sac_transport_io_micros{transport="ldjson",op="read"|"write"}`; the
/// decode/handle/encode stages are timed inside
/// [`SacService::handle_line`].
pub fn serve<R: BufRead, W: Write>(
    service: &SacService,
    mut input: R,
    mut output: W,
) -> std::io::Result<()> {
    let obs = service.obs();
    loop {
        let read_span = Span::start(&obs.ldjson_read);
        let mut line = String::new();
        let n = input.read_line(&mut line)?;
        read_span.finish();
        if n == 0 {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        match service.handle_line(line.trim_end_matches(['\r', '\n'])) {
            Some(mut reply) => {
                let write_span = Span::start(&obs.ldjson_write);
                // One write per reply line: on an unbuffered socket a
                // separate newline write could wait on a delayed ACK.
                reply.push('\n');
                output.write_all(reply.as_bytes())?;
                output.flush()?;
                write_span.finish();
            }
            None => break,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use sac_core::fixtures::{figure3, figure3_graph};
    use sac_engine::SacEngine;
    use std::sync::Arc;

    #[test]
    fn serves_lines_until_quit() {
        let service = SacService::new(
            Arc::new(SacEngine::new(figure3_graph())),
            ServiceConfig::default(),
        );
        let input = format!(
            "{{\"id\":1,\"q\":{},\"k\":2}}\n\n{{\"cmd\":\"stats\"}}\n{{\"cmd\":\"quit\"}}\n{{\"q\":0,\"k\":2}}\n",
            figure3::Q
        );
        let mut output = Vec::new();
        serve(&service, input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Two replies: the query and the stats; quit stops the loop before
        // the trailing query is read.
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"feasible\":true"));
        assert!(lines[1].contains("\"queries\":1"));
    }
}
