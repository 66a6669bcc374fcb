//! The caller half of the `pub-uncalled` fixture: a private function in
//! another file calls `called_elsewhere`, so that one is not flagged.

fn main() {
    println!("{}", crate::called_elsewhere());
}
