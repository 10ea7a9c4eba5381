//! A live server publishes an APPEND from the image the append wrote.
//!
//! The sink acknowledges an APPEND once its footer is durable, and it
//! publishes the new frames to readers without reading the storage again:
//! no I/O runs between the durable footer and the publish (FORMAT.md
//! §1.3), so a read failure there cannot turn a durable append into an
//! error reply that invites the writer to send the frames twice.

use std::io::ErrorKind;
use std::sync::{Arc, Mutex};

use mdz_core::{ErrorBound, Frame, MdzConfig, MdzError, Result};
use mdz_store::{
    write_store, AppendSink, ArchiveIndex, Client, Precision, Server, ServerConfig, StoreIo,
    StoreOptions, StoreReader,
};

/// In-memory storage, shared with the test, whose `read_all` works once
/// and fails ever after.
struct OneReadIo {
    bytes: Arc<Mutex<Vec<u8>>>,
    reads: usize,
}

impl StoreIo for OneReadIo {
    fn len(&mut self) -> Result<u64> {
        Ok(self.bytes.lock().unwrap().len() as u64)
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.reads += 1;
        if self.reads > 1 {
            return Err(MdzError::io(ErrorKind::Other, "read failed after the first"));
        }
        Ok(self.bytes.lock().unwrap().clone())
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        let mut bytes = self.bytes.lock().unwrap();
        let (start, end) = (offset as usize, offset as usize + buf.len());
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[start..end].copy_from_slice(buf);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.bytes.lock().unwrap().truncate(len as usize);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

fn frames(start: usize, count: usize) -> Vec<Frame> {
    (start..start + count)
        .map(|t| {
            let axis = |a: usize| -> Vec<f64> {
                (0..10).map(|i| (i * 3 + a) as f64 + (t as f64 * 0.3).sin() * 0.2).collect()
            };
            Frame::new(axis(0), axis(1), axis(2))
        })
        .collect()
}

#[test]
fn a_durable_append_is_acknowledged_and_published() {
    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::Absolute(1e-3)));
    opts.buffer_size = 4;
    opts.epoch_interval = 2;
    let base = write_store(&frames(0, 8), &[], &[], &opts).unwrap();
    let storage = Arc::new(Mutex::new(base.clone()));
    let io = OneReadIo { bytes: Arc::clone(&storage), reads: 0 };

    let reader = StoreReader::open(base).unwrap();
    let server =
        Server::bind(reader, "127.0.0.1:0", ServerConfig { threads: 1, ..Default::default() })
            .unwrap()
            .with_append_sink(AppendSink::new(Box::new(io), opts));
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let serving = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).unwrap();
    let extra = frames(8, 4);
    let ack = client.append(&extra, Precision::F64).expect("a durable append is acknowledged");
    assert_eq!((ack.start, ack.n_frames), (8, 12));
    assert_eq!(client.info().unwrap().n_frames, 12, "readers see the acknowledged frames");
    let served = client.get(8..12).unwrap();
    for (want, got) in extra.iter().zip(&served) {
        for (a, b) in [(&want.x, &got.x), (&want.y, &got.y), (&want.z, &got.z)] {
            assert!(a.iter().zip(b).all(|(a, b)| (a - b).abs() <= 1e-3), "served out of bound");
        }
    }
    handle.shutdown();
    serving.join().unwrap().unwrap();

    let stored = storage.lock().unwrap().clone();
    assert_eq!(ArchiveIndex::parse(&stored).unwrap().n_frames, 12, "the storage holds the append");
}
