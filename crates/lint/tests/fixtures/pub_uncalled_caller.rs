//! The caller half of the `pub-uncalled` fixture: a private function in
//! another file calls `called_elsewhere` and takes `used_as_pointer` as
//! a function pointer, so neither is flagged; it reads `Meter`'s field,
//! which does not use the method of the same name.

fn main() {
    let pointer: fn() -> u32 = crate::used_as_pointer;
    let meter = crate::Meter { reading: pointer() };
    println!("{} {}", crate::called_elsewhere(), meter.reading);
}
