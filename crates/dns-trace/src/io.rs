//! Plain-text persistence for traces and universes.
//!
//! The formats are line-oriented, diff-friendly and easy to produce from
//! real packet captures, so users can replay their own workloads through
//! the simulator:
//!
//! ```text
//! #dns-trace v1
//! name TRC1
//! days 7
//! clients 120
//! q <at-seconds> <client> <rtype> <qname>
//! ```
//!
//! ```text
//! #dns-universe v1
//! zone <apex> parent=<apex|-> irr=<secs> mx=<0|1>
//! ns <name> <ipv4>
//! a <name> <ttl-secs>
//! cname <alias> <target> <ttl-secs>
//! end
//! ```

use crate::{QueryEvent, Trace, Universe, ZoneSpec};
use dns_core::{Name, Question, RecordType, SimTime, Ttl};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::Ipv4Addr;

/// Errors from loading a trace or universe file.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { line, detail } => write!(f, "line {line}: {detail}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn parse_err(line: usize, detail: impl Into<String>) -> LoadError {
    LoadError::Parse {
        line,
        detail: detail.into(),
    }
}

fn rtype_code(rtype: RecordType) -> &'static str {
    match rtype {
        RecordType::A => "A",
        RecordType::Ns => "NS",
        RecordType::Cname => "CNAME",
        RecordType::Soa => "SOA",
        RecordType::Ptr => "PTR",
        RecordType::Mx => "MX",
        RecordType::Txt => "TXT",
        RecordType::Aaaa => "AAAA",
        RecordType::Ds => "DS",
        RecordType::Dnskey => "DNSKEY",
    }
}

fn parse_rtype(s: &str, line: usize) -> Result<RecordType, LoadError> {
    match s {
        "A" => Ok(RecordType::A),
        "NS" => Ok(RecordType::Ns),
        "CNAME" => Ok(RecordType::Cname),
        "SOA" => Ok(RecordType::Soa),
        "PTR" => Ok(RecordType::Ptr),
        "MX" => Ok(RecordType::Mx),
        "TXT" => Ok(RecordType::Txt),
        "AAAA" => Ok(RecordType::Aaaa),
        "DS" => Ok(RecordType::Ds),
        "DNSKEY" => Ok(RecordType::Dnskey),
        other => Err(parse_err(line, format!("unknown record type {other:?}"))),
    }
}

fn parse_name(s: &str, line: usize) -> Result<Name, LoadError> {
    s.parse()
        .map_err(|e| parse_err(line, format!("bad name {s:?}: {e}")))
}

/// Writes a trace in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_trace<W: Write>(mut w: W, trace: &Trace) -> io::Result<()> {
    writeln!(w, "#dns-trace v1")?;
    writeln!(w, "name {}", trace.name)?;
    writeln!(w, "days {}", trace.days)?;
    writeln!(w, "clients {}", trace.clients)?;
    for q in &trace.queries {
        writeln!(
            w,
            "q {} {} {} {}",
            q.at.as_secs(),
            q.client,
            rtype_code(q.question.rtype),
            q.question.name
        )?;
    }
    Ok(())
}

/// Reads a trace from the v1 text format.
///
/// # Errors
///
/// Returns [`LoadError`] on I/O failure or malformed input (including
/// out-of-order timestamps).
pub fn load_trace<R: Read>(r: R) -> Result<Trace, LoadError> {
    let reader = BufReader::new(r);
    let mut name = String::new();
    let mut days = 0u64;
    let mut clients = 0u32;
    let mut queries: Vec<QueryEvent> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("name") => name = parts.next().unwrap_or_default().to_string(),
            Some("days") => {
                days = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad days"))?;
            }
            Some("clients") => {
                clients = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad clients"))?;
            }
            Some("q") => {
                let at: u64 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad timestamp"))?;
                let client: u32 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad client id"))?;
                let rtype = parse_rtype(
                    parts
                        .next()
                        .ok_or_else(|| parse_err(lineno, "missing type"))?,
                    lineno,
                )?;
                let qname = parse_name(
                    parts
                        .next()
                        .ok_or_else(|| parse_err(lineno, "missing name"))?,
                    lineno,
                )?;
                if parts.next().is_some() {
                    return Err(parse_err(lineno, "trailing tokens after query"));
                }
                let at = SimTime::from_secs(at);
                if let Some(prev) = queries.last() {
                    if at < prev.at {
                        return Err(parse_err(lineno, "timestamps out of order"));
                    }
                }
                queries.push(QueryEvent {
                    at,
                    client,
                    question: Question::new(qname, rtype),
                });
            }
            Some(other) => return Err(parse_err(lineno, format!("unknown directive {other:?}"))),
            None => {}
        }
    }
    Ok(Trace {
        name,
        days,
        clients,
        queries,
    })
}

/// Writes a universe in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_universe<W: Write>(mut w: W, universe: &Universe) -> io::Result<()> {
    writeln!(w, "#dns-universe v1")?;
    for spec in universe.zones() {
        write!(
            w,
            "zone {} parent={} irr={} mx={}",
            spec.apex,
            spec.parent
                .as_ref()
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".to_string()),
            spec.infra_ttl.as_secs(),
            u8::from(spec.has_mx)
        )?;
        if let Some((tag, key)) = spec.dnskey {
            write!(w, " key={tag}:{key}")?;
        }
        writeln!(w)?;
        for (ns, addr) in &spec.ns {
            writeln!(w, "ns {ns} {addr}")?;
        }
        for (owner, ttl) in &spec.data_names {
            writeln!(w, "a {owner} {}", ttl.as_secs())?;
        }
        for (alias, target, ttl) in &spec.cnames {
            writeln!(w, "cname {alias} {target} {}", ttl.as_secs())?;
        }
        writeln!(w, "end")?;
    }
    Ok(())
}

/// Reads a universe from the v1 text format.
///
/// # Errors
///
/// Returns [`LoadError`] on I/O failure, malformed lines, or structural
/// problems (missing root, dangling parents).
pub fn load_universe<R: Read>(r: R) -> Result<Universe, LoadError> {
    let reader = BufReader::new(r);
    let mut zones: Vec<ZoneSpec> = Vec::new();
    let mut current: Option<ZoneSpec> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("zone") => {
                if current.is_some() {
                    return Err(parse_err(lineno, "zone before previous 'end'"));
                }
                let apex = parse_name(
                    parts
                        .next()
                        .ok_or_else(|| parse_err(lineno, "missing apex"))?,
                    lineno,
                )?;
                let mut parent = None;
                let mut infra_ttl = Ttl::from_days(1);
                let mut has_mx = false;
                let mut dnskey = None;
                for kv in parts {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| parse_err(lineno, format!("bad attribute {kv:?}")))?;
                    match k {
                        "parent" => {
                            parent = if v == "-" {
                                None
                            } else {
                                Some(parse_name(v, lineno)?)
                            };
                        }
                        "irr" => {
                            infra_ttl = Ttl::from_secs(
                                v.parse().map_err(|_| parse_err(lineno, "bad irr ttl"))?,
                            );
                        }
                        "mx" => has_mx = v == "1",
                        "key" => {
                            let (tag, key) = v
                                .split_once(':')
                                .ok_or_else(|| parse_err(lineno, "bad key attribute"))?;
                            dnskey = Some((
                                tag.parse().map_err(|_| parse_err(lineno, "bad key tag"))?,
                                key.parse()
                                    .map_err(|_| parse_err(lineno, "bad key value"))?,
                            ));
                        }
                        other => {
                            return Err(parse_err(lineno, format!("unknown attribute {other:?}")))
                        }
                    }
                }
                current = Some(ZoneSpec {
                    apex,
                    parent,
                    ns: Vec::new(),
                    infra_ttl,
                    data_names: Vec::new(),
                    cnames: Vec::new(),
                    has_mx,
                    dnskey,
                });
            }
            Some("ns") => {
                let zone = current
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "ns outside zone"))?;
                let name = parse_name(
                    parts
                        .next()
                        .ok_or_else(|| parse_err(lineno, "missing ns name"))?,
                    lineno,
                )?;
                let addr: Ipv4Addr = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad ns address"))?;
                zone.ns.push((name, addr));
            }
            Some("a") => {
                let zone = current
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "a outside zone"))?;
                let name = parse_name(
                    parts
                        .next()
                        .ok_or_else(|| parse_err(lineno, "missing owner"))?,
                    lineno,
                )?;
                let ttl = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(Ttl::from_secs)
                    .ok_or_else(|| parse_err(lineno, "bad ttl"))?;
                zone.data_names.push((name, ttl));
            }
            Some("cname") => {
                let zone = current
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "cname outside zone"))?;
                let alias = parse_name(
                    parts
                        .next()
                        .ok_or_else(|| parse_err(lineno, "missing alias"))?,
                    lineno,
                )?;
                let target = parse_name(
                    parts
                        .next()
                        .ok_or_else(|| parse_err(lineno, "missing target"))?,
                    lineno,
                )?;
                let ttl = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(Ttl::from_secs)
                    .ok_or_else(|| parse_err(lineno, "bad ttl"))?;
                zone.cnames.push((alias, target, ttl));
            }
            Some("end") => {
                let zone = current
                    .take()
                    .ok_or_else(|| parse_err(lineno, "end without zone"))?;
                if zone.ns.is_empty() {
                    return Err(parse_err(
                        lineno,
                        format!("zone {} has no servers", zone.apex),
                    ));
                }
                zones.push(zone);
            }
            Some(other) => return Err(parse_err(lineno, format!("unknown directive {other:?}"))),
            None => {}
        }
    }
    if current.is_some() {
        return Err(parse_err(0, "unterminated zone block"));
    }
    Universe::from_zone_specs(zones).map_err(|e| parse_err(0, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceSpec, UniverseSpec};

    #[test]
    fn trace_roundtrip() {
        let u = UniverseSpec::small().build(7);
        let t = TraceSpec::demo().scaled(0.02).generate(&u, 3);
        let mut buf = Vec::new();
        save_trace(&mut buf, &t).unwrap();
        let back = load_trace(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn universe_roundtrip() {
        let mut spec = UniverseSpec::small();
        spec.sld_count = 150;
        spec.tld_count = 8;
        let u = spec.build(7);
        let mut buf = Vec::new();
        save_universe(&mut buf, &u).unwrap();
        let back = load_universe(buf.as_slice()).unwrap();
        assert_eq!(back.zone_count(), u.zone_count());
        assert_eq!(back.root_servers(), u.root_servers());
        for (a, b) in back.zones().iter().zip(u.zones()) {
            assert_eq!(a.apex, b.apex);
            assert_eq!(a.ns, b.ns);
            assert_eq!(a.infra_ttl, b.infra_ttl);
            assert_eq!(a.data_names, b.data_names);
            assert_eq!(a.cnames, b.cnames);
            assert_eq!(a.has_mx, b.has_mx);
            assert_eq!(a.dnskey, b.dnskey);
        }
    }

    #[test]
    fn trace_rejects_out_of_order_timestamps() {
        let text = "#dns-trace v1\nname X\ndays 1\nclients 1\nq 10 0 A a.com\nq 5 0 A b.com\n";
        let err = load_trace(text.as_bytes()).unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: 6, .. }), "{err}");
    }

    #[test]
    fn trace_rejects_garbage() {
        for bad in [
            "q notanumber 0 A a.com",
            "q 1 0 BOGUS a.com",
            "q 1 0 A not a name!!",
            "frobnicate 1",
        ] {
            let text = format!("name X\ndays 1\nclients 1\n{bad}\n");
            assert!(load_trace(text.as_bytes()).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn universe_rejects_structural_errors() {
        // ns outside a zone.
        assert!(load_universe("ns a.root 1.2.3.4\n".as_bytes()).is_err());
        // Zone without servers.
        assert!(load_universe("zone com parent=- irr=60 mx=0\nend\n".as_bytes()).is_err());
        // Missing root.
        let text = "zone com parent=- irr=60 mx=0\nns ns.com 1.2.3.4\nend\n";
        assert!(load_universe(text.as_bytes()).is_err());
        // Dangling parent.
        let text = "zone . parent=- irr=60 mx=0\nns a.root 1.2.3.4\nend\n\
                    zone x.com parent=com irr=60 mx=0\nns ns.x.com 1.2.3.5\nend\n";
        assert!(load_universe(text.as_bytes()).is_err());
        // Unterminated block.
        let text = "zone . parent=- irr=60 mx=0\nns a.root 1.2.3.4\n";
        assert!(load_universe(text.as_bytes()).is_err());
    }

    #[test]
    fn loaded_universe_is_servable() {
        let mut spec = UniverseSpec::small();
        spec.sld_count = 50;
        spec.tld_count = 5;
        let u = spec.build(3);
        let mut buf = Vec::new();
        save_universe(&mut buf, &u).unwrap();
        let back = load_universe(buf.as_slice()).unwrap();
        // Zones materialise and serve.
        let zones = back.build_zones(None);
        assert_eq!(zones.len(), back.zone_count());
        assert!(back.zone_of(&back.zones()[5].apex).is_some());
    }
}
