//! Master-file round trips over generated zones: every zone the universe
//! generator produces must export to text and re-import as a zone that
//! answers queries identically.

use dns_resilience::auth::AuthServer;
use dns_resilience::core::zonefile::parse_zone;
use dns_resilience::core::{Message, Question, RecordType, Zone};
use dns_resilience::trace::UniverseSpec;
use std::net::Ipv4Addr;

fn answers_match(a: &Zone, b: &Zone, qname: &dns_resilience::core::Name, rtype: RecordType) {
    let mut sa = AuthServer::new("t.test".parse().unwrap(), Ipv4Addr::LOCALHOST);
    sa.add_zone(a.clone());
    let mut sb = AuthServer::new("t.test".parse().unwrap(), Ipv4Addr::LOCALHOST);
    sb.add_zone(b.clone());
    let q = Message::query(1, Question::new(qname.clone(), rtype));
    let ra = sa.handle_query(&q);
    let rb = sb.handle_query(&q);
    assert_eq!(ra.header.rcode, rb.header.rcode, "{qname} {rtype}");
    assert_eq!(ra.kind(), rb.kind(), "{qname} {rtype}");
    // Compare answer/authority/additional as unordered sets.
    for (sec_a, sec_b) in [
        (&ra.answers, &rb.answers),
        (&ra.authorities, &rb.authorities),
        (&ra.additionals, &rb.additionals),
    ] {
        let mut xa: Vec<String> = sec_a.iter().map(|r| r.to_string()).collect();
        let mut xb: Vec<String> = sec_b.iter().map(|r| r.to_string()).collect();
        xa.sort();
        xb.sort();
        assert_eq!(xa, xb, "{qname} {rtype}");
    }
}

#[test]
fn generated_zones_roundtrip_through_master_files() {
    let mut spec = UniverseSpec::small_signed();
    spec.sld_count = 200;
    spec.tld_count = 10;
    let u = spec.build(13);

    let mut tested = 0;
    for zone_spec in u.zones().iter().step_by(17) {
        let zone = u.build_zone(zone_spec, None);
        let text = zone.to_zone_file();
        let back = parse_zone(&text)
            .unwrap_or_else(|e| panic!("zone {} failed to re-parse: {e}", zone_spec.apex));

        // The re-parsed zone must answer every interesting query the
        // same way: data names, aliases, apex NS/MX/DNSKEY, a missing
        // name, and a delegated name.
        for (name, _) in &zone_spec.data_names {
            answers_match(&zone, &back, name, RecordType::A);
        }
        for (alias, _, _) in &zone_spec.cnames {
            answers_match(&zone, &back, alias, RecordType::A);
        }
        answers_match(&zone, &back, &zone_spec.apex, RecordType::Ns);
        answers_match(&zone, &back, &zone_spec.apex, RecordType::Mx);
        answers_match(&zone, &back, &zone_spec.apex, RecordType::Dnskey);
        let nx_label = dns_resilience::core::Label::new(b"nx0").unwrap();
        let missing = zone_spec.apex.child(nx_label).unwrap();
        answers_match(&zone, &back, &missing, RecordType::A);
        for child in u.children_of(&zone_spec.apex) {
            let www = dns_resilience::core::Label::new(b"www").unwrap();
            let deep = child.apex.child(www).unwrap();
            answers_match(&zone, &back, &deep, RecordType::A);
            answers_match(&zone, &back, &child.apex, RecordType::Ds);
        }
        tested += 1;
    }
    assert!(tested >= 10, "tested only {tested} zones");
}
