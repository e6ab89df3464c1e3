//! Conformance oracle: every statement in the SSB + micro corpus
//! executed over a TCP socket must come back **byte-identical** to the
//! in-process `TcuDb::execute` result — under 1 connection and under 64
//! concurrent connections — and error paths must map onto their typed
//! frames (shed → `Overloaded`, deadline → `DeadlineExceeded`, parse →
//! `Parse`).

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use tcudb_core::TcuDb;
use tcudb_datagen::{micro, ssb};
use tcudb_net::{Client, NetConfig, NetServer};
use tcudb_serve::ServeConfig;
use tcudb_storage::{Catalog, Table};
use tcudb_types::TcuError;

struct Fixture {
    db: Arc<TcuDb>,
    server: NetServer,
    /// `(name, sql, expected table)` for the whole corpus.
    corpus: Vec<(String, String, Table)>,
}

/// One shared engine + server + oracle for the whole test binary: the
/// corpus runs once in-process and every socket result is compared
/// against it.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ssb_cat = ssb::gen_catalog(1, 0x55B);
        let micro_cat = micro::gen_catalog(&micro::MicroConfig::new(10_000, 4_096));
        let mut cat = Catalog::new();
        for source in [&ssb_cat, &micro_cat] {
            for name in source.table_names() {
                cat.register((*source.table(&name).unwrap()).clone());
            }
        }
        let db = Arc::new(TcuDb::default());
        db.set_catalog(cat);

        let mut corpus = Vec::new();
        for (name, sql) in ssb::queries() {
            let expected = db.execute(&sql).expect("in-process execution").table;
            corpus.push((format!("ssb/{name}"), sql, expected));
        }
        for (name, sql) in micro::queries() {
            let expected = db.execute(sql).expect("in-process execution").table;
            corpus.push((format!("micro/{name}"), sql.to_string(), expected));
        }

        let server =
            NetServer::start(Arc::clone(&db), NetConfig::default()).expect("server starts");
        Fixture { db, server, corpus }
    })
}

fn connect(f: &Fixture) -> Client {
    let client = Client::connect(f.server.local_addr()).expect("client connects");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    client
}

#[test]
fn corpus_over_one_connection_is_byte_identical() {
    let f = fixture();
    let mut client = connect(f);
    for (name, sql, expected) in &f.corpus {
        let got = client.query(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&got, expected, "{name}: socket result diverged");
    }
    client.goodbye();
}

#[test]
fn corpus_prepared_over_socket_is_byte_identical() {
    let f = fixture();
    let mut client = connect(f);
    for (name, sql, expected) in &f.corpus {
        let handle = client
            .prepare(sql)
            .unwrap_or_else(|e| panic!("{name}: prepare: {e}"));
        let got = client
            .execute_prepared(handle, None)
            .unwrap_or_else(|e| panic!("{name}: execute prepared: {e}"));
        assert_eq!(&got, expected, "{name}: prepared socket result diverged");
        // Handles are reusable.
        let again = client
            .execute_prepared(handle, None)
            .unwrap_or_else(|e| panic!("{name}: re-execute prepared: {e}"));
        assert_eq!(
            &again, expected,
            "{name}: repeated prepared execution diverged"
        );
    }
    client.goodbye();
}

#[test]
fn corpus_under_64_concurrent_connections_is_byte_identical() {
    let f = fixture();
    let n_conns = 64;
    // Every connection runs a rotated slice of the corpus so all queries
    // execute while 64 connections are simultaneously open.
    std::thread::scope(|s| {
        for c in 0..n_conns {
            s.spawn(move || {
                let mut client = connect(f);
                for k in 0..4 {
                    let (name, sql, expected) = &f.corpus[(c + k * 17) % f.corpus.len()];
                    let got = client
                        .query(sql)
                        .unwrap_or_else(|e| panic!("conn {c} {name}: {e}"));
                    assert_eq!(&got, expected, "conn {c} {name}: socket result diverged");
                }
                client.goodbye();
            });
        }
    });
    assert!(f.server.stats().accepted >= n_conns as u64);
}

#[test]
fn server_holds_256_open_connections_each_serving_a_verified_statement() {
    let f = fixture();
    // A dedicated server, so the census counts exactly these clients.
    let server = NetServer::start(Arc::clone(&f.db), NetConfig::default()).expect("server starts");
    let n_conns = 256;
    let mut clients: Vec<Client> = (0..n_conns)
        .map(|_| {
            let client = Client::connect(server.local_addr()).expect("client connects");
            client
                .set_read_timeout(Some(Duration::from_secs(120)))
                .expect("set timeout");
            client
        })
        .collect();
    // One thread, one statement per connection, every connection open
    // throughout: a reply proves the reactor accepted that connection.
    for (c, client) in clients.iter_mut().enumerate() {
        let (name, sql, expected) = &f.corpus[c % f.corpus.len()];
        let got = client
            .query(sql)
            .unwrap_or_else(|e| panic!("conn {c} {name}: {e}"));
        assert_eq!(&got, expected, "conn {c} {name}: socket result diverged");
    }
    let active = server.stats().active;
    assert!(
        active >= 256,
        "only {active} concurrent connections held (need 256)"
    );
    for client in clients {
        client.goodbye();
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn pipelined_statements_come_back_in_order_and_identical() {
    let f = fixture();
    let mut client = connect(f);
    // Fire 12 statements before reading any reply.
    let picks: Vec<usize> = (0..12).map(|i| (i * 5) % f.corpus.len()).collect();
    let mut ids = Vec::new();
    for &p in &picks {
        ids.push(client.send_query(&f.corpus[p].1, None).expect("send"));
    }
    for (i, &p) in picks.iter().enumerate() {
        let (id, result) = client.recv_reply().expect("recv");
        assert_eq!(id, ids[i], "replies must arrive in submission order");
        let got = result.unwrap_or_else(|e| panic!("{}: {e}", f.corpus[p].0));
        assert_eq!(
            &got, &f.corpus[p].2,
            "{}: pipelined result diverged",
            f.corpus[p].0
        );
    }
    client.goodbye();
}

#[test]
fn half_closed_pipeline_still_gets_every_reply_in_order() {
    let f = fixture();
    let mut client = connect(f);
    // Fire 12 statements, then shut the write half before reading
    // anything: the server sees the statements and the half-close in one
    // wakeup, and still owes all 12 answers.
    let picks: Vec<usize> = (0..12).map(|i| (i * 7 + 3) % f.corpus.len()).collect();
    let mut ids = Vec::new();
    for &p in &picks {
        ids.push(client.send_query(&f.corpus[p].1, None).expect("send"));
    }
    client.finish_sending().expect("half-close");
    for (i, &p) in picks.iter().enumerate() {
        let (id, result) = client.recv_reply().expect("recv after half-close");
        assert_eq!(id, ids[i], "replies must arrive in submission order");
        let got = result.unwrap_or_else(|e| panic!("{}: {e}", f.corpus[p].0));
        assert_eq!(
            &got, &f.corpus[p].2,
            "{}: half-closed result diverged",
            f.corpus[p].0
        );
    }
    // With every reply flushed the server closes its side too.
    assert!(
        client.recv_reply().is_err(),
        "server kept a half-closed, fully answered connection open"
    );
}

#[test]
fn parse_errors_come_back_as_typed_parse_frames() {
    let f = fixture();
    let mut client = connect(f);
    match client.query("SELEKT definitely not sql") {
        Err(TcuError::Parse(_)) => {}
        other => panic!("expected a typed Parse error over the socket, got {other:?}"),
    }
    // The connection survives a statement error.
    let (name, sql, expected) = &f.corpus[0];
    let got = client.query(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(&got, expected);
    client.goodbye();
}

#[test]
fn expired_deadline_comes_back_as_typed_deadline_frame() {
    let f = fixture();
    // A dedicated server whose default deadline is already expired at
    // submit: deterministic DeadlineExceeded for any statement.
    let server = NetServer::start(
        Arc::clone(&f.db),
        NetConfig {
            serve: ServeConfig {
                default_deadline: Some(Duration::from_secs(0)),
                ..ServeConfig::with_workers(2)
            },
            ..NetConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    match client.query(&f.corpus[0].1) {
        Err(TcuError::DeadlineExceeded(_)) => {}
        other => panic!("expected a typed DeadlineExceeded frame, got {other:?}"),
    }
    client.goodbye();
    server.shutdown().expect("shutdown");
}

#[test]
fn shed_statements_come_back_as_typed_overloaded_frames() {
    let f = fixture();
    // One worker, a one-entry queue, no coalescing: a pipelined burst of
    // distinct statements must shed.  Retry the burst a few times in
    // case the worker drains a round implausibly fast.
    let server = NetServer::start(
        Arc::clone(&f.db),
        NetConfig {
            serve: ServeConfig {
                coalesce: false,
                max_queue: 1,
                ..ServeConfig::with_workers(1)
            },
            ..NetConfig::default()
        },
    )
    .expect("server starts");
    let mut shed_seen = 0u64;
    for round in 0..10 {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("set timeout");
        // Distinct statements (rotated corpus slice) fired back-to-back.
        let mut picks = Vec::new();
        for i in 0..24 {
            let p = (round * 7 + i) % f.corpus.len();
            picks.push(p);
            client.send_query(&f.corpus[p].1, None).expect("send");
        }
        for &p in &picks {
            let (_, result) = client.recv_reply().expect("recv");
            match result {
                Ok(got) => assert_eq!(
                    &got, &f.corpus[p].2,
                    "{}: admitted result diverged under overload",
                    f.corpus[p].0
                ),
                Err(TcuError::Overloaded(_)) => shed_seen += 1,
                Err(e) => panic!("{}: unexpected error kind under flood: {e}", f.corpus[p].0),
            }
        }
        client.goodbye();
        if shed_seen > 0 {
            break;
        }
    }
    assert!(
        shed_seen > 0,
        "a 24-statement pipelined burst against a 1-worker/1-queue server never shed"
    );
    server.shutdown().expect("shutdown");
}
